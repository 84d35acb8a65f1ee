package health

import (
	"fmt"
	"sort"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/flacdk/reliability"
	"flacos/internal/membership"
	"flacos/internal/trace"
)

// DetectState is a slot's health verdict, stored in the health control
// word. Unlike membership's liveness states it is advisory — a wrong
// verdict costs a needless drain, never correctness — but transitions
// are still CAS-only so exactly one agent wins each verdict rack-wide
// and the event stream carries each transition once per observer.
type DetectState uint8

const (
	// HealthUnknown: no verdict yet (slot empty or just (re)joined).
	HealthUnknown DetectState = iota
	// HealthOK: the detector affirmed the node's signals are normal.
	HealthOK
	// HealthDegraded: the anomaly detector concluded the node is gray-
	// failing: alive and heartbeating, but slower or more error-prone
	// than the rack by the configured margins.
	HealthDegraded
)

func (s DetectState) String() string {
	switch s {
	case HealthUnknown:
		return "unknown"
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	}
	return fmt.Sprintf("health(%d)", uint8(s))
}

// Detector constants no caller tunes. A node is degraded when its smoothed
// ns per op exceeds latFactor times the rack median and also latFloorNS
// (which guards the ratio against tiny absolute numbers), when its
// published link degradation reaches linkHops extra hops (a direct
// reading, so no smoothing), or when its smoothed errors per window reach
// errMilli thousandths. It counts as healthy again only below exitFactor
// times each threshold, so the two bands never touch.
//
// The degraded condition must hold for enterStrikes consecutive agent
// ticks before the verdict flips; the strike counter is observer-local,
// exactly like membership's DeadStrikes, so a stalled observer cannot
// rush a verdict. exitStrikes is the recovery hysteresis — recover slower
// than you detect, or a flapping link saws the controller back and forth.
const (
	latFactor    = 3
	latFloorNS   = 1000
	linkHops     = 4
	errMilli     = 500
	exitFactor   = 0.75
	enterStrikes = 2
	exitStrikes  = 4
)

// Layer is the rack's health table: one record line and one control
// line per membership slot, plus the host-side degraded mirror. It
// rides the membership table's slot space — slot i here is slot i
// there — so a verdict and the liveness state it annotates always name
// the same (node, generation).
type Layer struct {
	mem *membership.Table

	recG fabric.GPtr // health records, one line per slot (cached writes)
	// ctl holds each slot's verdict word (aux zero). Its generation is the
	// slot's membership generation, so a rejoin's bumped generation marks
	// the old verdict stale: it is cleared, never inherited.
	ctl ds.StateTable[DetectState]

	// degraded mirrors each NODE's verdict as this host's agents last
	// observed it — the zero-fabric-cost oracle for placement paths;
	// authoritative state is always the control word.
	degraded []atomic.Bool
}

// New lays the health table out in the fabric's global memory alongside
// mem's slots.
func New(mem *membership.Table) *Layer {
	f := mem.Fabric()
	slots := mem.Slots()
	return &Layer{
		mem:      mem,
		recG:     f.Reserve(uint64(slots)*recordBytes, fabric.LineSize),
		ctl:      ds.NewStateTable[DetectState](f, slots),
		degraded: make([]atomic.Bool, f.NumNodes()),
	}
}

func (l *Layer) recSlotG(slot int) fabric.GPtr { return l.recG.Add(uint64(slot) * recordBytes) }

// Degraded reports whether node id is currently under a Degraded
// verdict, as last observed by this host's agents. Pure host-side read,
// safe on any hot path. Nodes with no verdict report false.
func (l *Layer) Degraded(id int) bool {
	if id < 0 || id >= len(l.degraded) {
		return false
	}
	return l.degraded[id].Load()
}

func (l *Layer) setDegradedMirror(node int, deg bool) {
	if node < 0 || node >= len(l.degraded) {
		return
	}
	l.degraded[node].Store(deg)
}

// Join attaches a health agent to membership member m as a step of m's
// agent loop: every heartbeat tick the agent publishes m's node's own
// signals into the slot's health record and runs the anomaly detector
// over every slot, raising EvDegraded / EvRecovered through m's event
// stream. It runs from m.Start until m stops or its node crashes.
func (l *Layer) Join(m *membership.Member, src SignalSource) *Agent {
	a := &Agent{
		l:        l,
		m:        m,
		n:        m.Node(),
		src:      src,
		latP:     reliability.NewPredictor(),
		errP:     reliability.NewPredictor(),
		lastHCtl: make([]ds.StateWord[DetectState], l.mem.Slots()),
		eval:     make(map[int]*slotEval),
	}
	m.OnTick(a.step)
	return a
}

// slotEval is one agent's running evaluation state for a slot.
type slotEval struct {
	gen     uint64 // generation the strike history belongs to
	strikes int    // consecutive degraded ticks (toward enterStrikes)
	clears  int    // consecutive healthy ticks (toward exitStrikes)
}

// Agent is one node's live participation in the health layer: its
// signal publisher and its anomaly detector over the other slots.
// Every live agent evaluates every slot — like membership's detector,
// verdicts need no coordinator and survive any single observer.
type Agent struct {
	l   *Layer
	m   *membership.Member
	n   *fabric.Node
	src SignalSource

	latP *reliability.Predictor // smoothed own ns-per-op
	errP *reliability.Predictor // smoothed own errors-per-window
	seq  uint64

	// Detector state, all node-local host memory.
	lastHCtl []ds.StateWord[DetectState]
	eval     map[int]*slotEval
}

// tw is the member's flight-recorder writer: verdict transitions this
// agent wins land in the rack timeline as SubHealth events.
func (a *Agent) tw() *trace.Writer { return a.m.Trace() }

// step is the agent's tick on its member's agent loop: sample, then
// observe. A crash mid-step stops the loop it runs on — the record
// freezes exactly at the crash, and the other agents' generation guard
// retires it with the membership state.
func (a *Agent) step() {
	a.publishSample()
	a.observeAll()
}

// publishSample folds one window of the node's own signals into the
// EWMAs and republishes the slot's health line under the next seq.
func (a *Agent) publishSample() {
	sg := a.src.Sample()
	if sg.Ops > 0 {
		a.latP.Observe(sg.VirtualNS / sg.Ops)
	}
	a.errP.Observe(sg.Errors)
	a.seq++
	r := Record{
		Node:         uint8(a.n.ID()),
		Slot:         uint8(a.m.Slot()),
		Generation:   a.m.Generation(),
		LatEWMANS:    uint64(a.latP.Rate()),
		ErrEWMAMilli: uint64(a.errP.Rate() * ewmaScale),
		LinkHops:     sg.LinkHops,
	}
	sampleLine.Publish(a.n, a.l.recSlotG(a.m.Slot()), a.seq, r.payload())
}

// observeAll runs one detector pass: read every live slot's record,
// compute the rack-median latency, evaluate each slot against the
// thresholds with observer-local hysteresis, CAS verdict transitions,
// and synthesize EvDegraded/EvRecovered from health-control diffs.
func (a *Agent) observeAll() {
	mem := a.l.mem.Snapshot(a.n)
	slots := a.l.mem.Slots()

	// Pass 1: collect every live slot's current record (generation- and
	// occupant-checked) so the median is computed over one consistent
	// population.
	recs := make(map[int]Record, slots)
	lats := make([]uint64, 0, slots)
	for slot := 0; slot < slots; slot++ {
		st := mem[slot].State
		if st != membership.StateJoining && st != membership.StateAlive && st != membership.StateSuspect {
			continue
		}
		rec, err := a.l.readRecord(a.n, slot)
		if err != nil || rec.Generation != mem[slot].Generation || int(rec.Node) != mem[slot].Node {
			continue // torn, stale-generation, or recycled-slot record: no information
		}
		recs[slot] = rec
		lats = append(lats, rec.LatEWMANS)
	}
	median := medianU64(lats)

	// Pass 2: per-slot verdicts and event synthesis.
	for slot := 0; slot < slots; slot++ {
		hw := a.l.ctl.Load(a.n, slot)
		cur := hw
		st := mem[slot].State
		live := st == membership.StateJoining || st == membership.StateAlive || st == membership.StateSuspect

		if !live || (hw != 0 && hw.Gen() != mem[slot].Generation) {
			// The occupant died, left, or rejoined under a new generation:
			// liveness wins, the stale verdict is cleared without an event
			// (consumers hear about death from the membership stream).
			delete(a.eval, slot)
			if hw != 0 {
				a.l.ctl.Transition(a.n, slot, hw, 0)
			}
			cur = 0
			a.diffHCtl(slot, cur)
			continue
		}

		rec, ok := recs[slot]
		if !ok {
			// No usable sample this tick: hold the verdict, freeze strikes.
			a.diffHCtl(slot, cur)
			continue
		}

		ev := a.eval[slot]
		if ev == nil || ev.gen != rec.Generation {
			ev = &slotEval{gen: rec.Generation}
			a.eval[slot] = ev
		}
		deg := a.degradedNow(rec, median, 1)
		healthy := !a.degradedNow(rec, median, exitFactor)

		switch hw.State() {
		case HealthDegraded:
			ev.strikes = 0
			if healthy {
				ev.clears++
			} else {
				ev.clears = 0
			}
			if ev.clears >= exitStrikes {
				ev.clears = 0
				next := ds.PackState(mem[slot].Generation, 0, mem[slot].Node, HealthOK)
				if a.l.ctl.Transition(a.n, slot, hw, next) {
					cur = next
					if tw := a.tw(); tw != nil {
						tw.Emit(trace.SubHealth, trace.KRecovered, 0, uint64(mem[slot].Node), mem[slot].Generation)
					}
				}
			}
		default: // HealthUnknown or HealthOK
			ev.clears = 0
			if deg {
				ev.strikes++
			} else {
				ev.strikes = 0
			}
			if ev.strikes >= enterStrikes {
				ev.strikes = 0
				next := ds.PackState(mem[slot].Generation, 0, mem[slot].Node, HealthDegraded)
				if a.l.ctl.Transition(a.n, slot, hw, next) {
					cur = next
					if tw := a.tw(); tw != nil {
						tw.Emit(trace.SubHealth, trace.KDegraded, 0, uint64(mem[slot].Node), mem[slot].Generation)
					}
				}
			}
		}
		a.diffHCtl(slot, cur)
	}
}

// degradedNow evaluates the instantaneous degraded condition for rec
// against the rack median, with every threshold scaled by factor (1 for
// the enter test, exitFactor for the recovery test, so the bands never
// touch).
func (a *Agent) degradedNow(rec Record, median uint64, factor float64) bool {
	latBad := median > 0 &&
		float64(rec.LatEWMANS) > latFactor*factor*float64(median) &&
		float64(rec.LatEWMANS) >= factor*latFloorNS
	hopsBad := float64(rec.LinkHops) >= factor*linkHops
	errBad := float64(rec.ErrEWMAMilli) >= factor*errMilli
	return latBad || hopsBad || errBad
}

// diffHCtl synthesizes EvDegraded/EvRecovered by comparing slot's
// health control word against what this agent last saw, updating the
// host-side degraded mirror on the way. A word cleared by death or
// rejoin delivers nothing: the membership stream already carries the
// transition that killed the verdict, and dead beats degraded.
func (a *Agent) diffHCtl(slot int, w ds.StateWord[DetectState]) {
	prev := a.lastHCtl[slot]
	if w == prev {
		return
	}
	a.lastHCtl[slot] = w
	switch {
	case w.State() == HealthDegraded:
		a.l.setDegradedMirror(w.Owner(), true)
		a.m.Publish(membership.Event{
			Kind: membership.EvDegraded, Slot: slot,
			Node: w.Owner(), Generation: w.Gen(),
		})
	case prev.State() == HealthDegraded:
		a.l.setDegradedMirror(prev.Owner(), false)
		if w.State() == HealthOK && w.Gen() == prev.Gen() {
			a.m.Publish(membership.Event{
				Kind: membership.EvRecovered, Slot: slot,
				Node: w.Owner(), Generation: w.Gen(),
			})
		}
	}
}

// medianU64 returns the median of vs (mean of the middle pair for even
// lengths), 0 for an empty slice.
func medianU64(vs []uint64) uint64 {
	if len(vs) == 0 {
		return 0
	}
	s := make([]uint64, len(vs))
	copy(s, vs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
