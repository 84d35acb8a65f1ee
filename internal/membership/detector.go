package membership

import (
	"math"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// The detector is phi-accrual style (Hayashibara et al.), hybridized
// with the frozen-beat strike counting sched's lease keeper proved out:
// each agent keeps a sliding window of observed inter-beat intervals
// per slot and converts "time since the last beat" into a suspicion
// level phi; crossing PhiSuspect proposes Suspect, and a slot is only
// declared Dead after phi has stayed above PhiDead for DeadStrikes
// consecutive ticks OF THIS OBSERVER — the strike counter advances with
// the observer's own loop, so an observer that was itself descheduled
// for a while resumes with stale elapsed times but no accumulated
// strikes, and cannot rush a verdict it didn't watch happen.
//
// Every transition is a CAS on the control word, so when five agents
// conclude "dead" simultaneously exactly one performs the transition —
// and a false verdict is SAFE (the fencing generation makes the zombie
// rejectable everywhere) but still avoided, because a suspected node
// refutes by bumping its incarnation (SWIM-style) the moment it sees
// itself suspected.

// slotObs is one agent's running observation state for a slot.
type slotObs struct {
	gen       uint64    // generation the observation history belongs to
	beat      uint64    // last observed beat
	lastBeatW time.Time // wall time of the last beat advance
	intervals []float64 // sliding window of inter-beat wall intervals (ns)
	strikes   int       // consecutive ticks with phi >= PhiDead
}

// phi converts the elapsed time since the last beat into a suspicion
// level: phi = log10(1 / P(beat still pending)) under an exponential
// inter-arrival model, i.e. elapsed/mean * log10(e). Fresh windows fall
// back to 4 heartbeat ticks as the mean.
func (t *Table) phi(o *slotObs, elapsed time.Duration) float64 {
	mean := 4 * float64(t.cfg.HeartbeatTick.Nanoseconds())
	if len(o.intervals) >= 2 {
		sum := 0.0
		for _, v := range o.intervals {
			sum += v
		}
		mean = sum / float64(len(o.intervals))
	}
	if mean <= 0 {
		mean = float64(t.cfg.HeartbeatTick.Nanoseconds())
	}
	return float64(elapsed.Nanoseconds()) / mean * math.Log10E
}

// maxVNS returns the freshest virtual-clock value rack-wide plus the
// configured slack — the bound a valid record timestamp cannot exceed.
func (t *Table) maxVNS() uint64 {
	var max uint64
	for i := 0; i < t.fab.NumNodes(); i++ {
		if v := t.fab.Node(i).VirtualNS(); v > max {
			max = v
		}
	}
	return max + t.cfg.ClockSlackNS
}

// agentLoop is the member's detector: every tick it reads each other
// slot's control word and heartbeat record, updates the phi estimate,
// performs Suspect/Dead transitions it is entitled to, refutes
// suspicions against itself, and synthesizes the rack-wide event stream
// from control-word diffs.
func (m *Member) agentLoop() {
	defer m.wg.Done()
	defer m.n.AbsorbCrash() // this agent died with its node
	m.obs = make(map[int]*slotObs)
	tick := time.NewTicker(m.t.cfg.DetectTick)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.observeAll()
		}
	}
}

func (m *Member) observeAll() {
	maxVNS := m.t.maxVNS()
	for slot := 0; slot < m.t.cfg.Slots; slot++ {
		w := m.n.AtomicLoad64(m.t.ctlSlotG(slot))
		m.diffCtl(slot, w)
		if slot == m.slot {
			m.refuteIfSuspected(w)
			continue
		}
		st := ctlState(w)
		if st == StateFree || st == StateDead || st == StateLeft {
			delete(m.obs, slot)
			continue
		}
		m.observeSlot(slot, w, maxVNS)
	}
}

// observeSlot reads slot's heartbeat record and applies the detector's
// transition rules against control word w (state Joining/Alive/Suspect).
func (m *Member) observeSlot(slot int, w uint64, maxVNS uint64) {
	g := m.t.hbSlotG(slot)
	m.n.InvalidateRange(g, recordBytes)
	var line [recordBytes]byte
	m.n.Read(g, line[:])
	rec, err := DecodeRecord(line, slot, maxVNS)

	o := m.obs[slot]
	if o == nil || (err == nil && o.gen != rec.Generation) {
		// First sight of this slot (or of a new generation): start a
		// fresh observation history; never carry strikes across a rejoin.
		o = &slotObs{lastBeatW: time.Now()}
		if err == nil {
			o.gen, o.beat = rec.Generation, rec.Beat
		}
		m.obs[slot] = o
		return
	}

	if err == nil && rec.Generation == ctlGen(w) && rec.Beat > o.beat {
		// A live beat under the current generation: record the arrival.
		now := time.Now()
		iv := float64(now.Sub(o.lastBeatW).Nanoseconds())
		o.intervals = append(o.intervals, iv)
		if len(o.intervals) > m.t.cfg.Window {
			o.intervals = o.intervals[1:]
		}
		o.beat, o.lastBeatW, o.strikes = rec.Beat, now, 0
		// A beating Suspect is alive: lift the suspicion on its behalf
		// (its own refutation may land first; either CAS winning is fine).
		if ctlState(w) == StateSuspect && rec.Incarnation >= ctlInc(w) {
			next := packCtl(ctlGen(w), rec.Incarnation, ctlNode(w), StateAlive)
			if m.n.CAS64(m.t.ctlSlotG(slot), w, next) {
				m.n.AtomicStore64(m.t.stampG(slot), m.n.VirtualNS())
			}
		}
		return
	}

	// No usable beat this tick (frozen, torn, corrupt, or from a stale
	// generation — all treated identically: zero information).
	phi := m.t.phi(o, time.Since(o.lastBeatW))
	st := ctlState(w)
	if st != StateSuspect {
		o.strikes = 0
		if phi >= m.t.cfg.PhiSuspect && st == StateAlive {
			next := packCtl(ctlGen(w), ctlInc(w), ctlNode(w), StateSuspect)
			if m.n.CAS64(m.t.ctlSlotG(slot), w, next) {
				m.n.AtomicStore64(m.t.stampG(slot), m.n.VirtualNS())
				if tw := m.tw(); tw != nil {
					tw.Emit(trace.SubMembership, trace.KSuspect, 0, uint64(slot), uint64(ctlNode(w)))
				}
			}
		}
		return
	}
	if phi >= m.t.cfg.PhiDead {
		o.strikes++
	} else {
		o.strikes = 0
	}
	if o.strikes >= m.t.cfg.DeadStrikes {
		o.strikes = 0
		next := packCtl(ctlGen(w), ctlInc(w), ctlNode(w), StateDead)
		if m.n.CAS64(m.t.ctlSlotG(slot), w, next) {
			m.n.AtomicStore64(m.t.stampG(slot), m.n.VirtualNS())
			if tw := m.tw(); tw != nil {
				tw.Emit(trace.SubMembership, trace.KDead, 0, uint64(slot), uint64(ctlNode(w)))
			}
		}
	}
}

// Suspect forces slot Alive -> Suspect through node n — exactly the
// CAS the detector performs when phi crosses PhiSuspect, minus the phi.
// For tests and fault-injection tooling that script suspicion instead
// of waiting out a real beat gap; the suspected node refutes it like
// any other suspicion. Returns whether the CAS won.
func (t *Table) Suspect(n *fabric.Node, slot int) bool {
	if slot < 0 || slot >= t.cfg.Slots {
		return false
	}
	w := n.AtomicLoad64(t.ctlSlotG(slot))
	if ctlState(w) != StateAlive {
		return false
	}
	next := packCtl(ctlGen(w), ctlInc(w), ctlNode(w), StateSuspect)
	if !n.CAS64(t.ctlSlotG(slot), w, next) {
		return false
	}
	n.AtomicStore64(t.stampG(slot), n.VirtualNS())
	return true
}

// refuteIfSuspected handles the member's OWN slot: a live node that
// finds itself Suspect bumps its incarnation and CASes back to Alive —
// the SWIM refutation that distinguishes "slow" from "gone" without
// any observer having to guess.
func (m *Member) refuteIfSuspected(w uint64) {
	if ctlState(w) != StateSuspect || ctlGen(w) != m.gen {
		return
	}
	newInc := ctlInc(w) + 1
	next := packCtl(m.gen, newInc, m.n.ID(), StateAlive)
	if m.n.CAS64(m.t.ctlSlotG(m.slot), w, next) {
		atomic.StoreUint64(&m.inc, newInc)
		m.n.AtomicStore64(m.t.stampG(m.slot), m.n.VirtualNS())
		// Republish immediately so observers see the new incarnation's
		// beat rather than re-suspecting off the old history.
		m.publishBeat()
		if tw := m.tw(); tw != nil {
			tw.Emit(trace.SubMembership, trace.KRefute, 0, uint64(m.slot), newInc)
		}
	}
}
