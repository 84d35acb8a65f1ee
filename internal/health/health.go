package health

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
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

// The health control word packs gen(32) | node(8) | state(8), the same
// shape as membership's control word minus the incarnation. The
// generation ties every verdict to one membership incarnation of the
// slot: a rejoin bumps the generation, so stale verdicts are
// distinguishable and cleared rather than inherited.
func packHCtl(gen uint64, node int, st DetectState) uint64 {
	return gen<<32 | uint64(node&0xff)<<8 | uint64(st)
}

func hctlGen(w uint64) uint64        { return w >> 32 }
func hctlNode(w uint64) int          { return int((w >> 8) & 0xff) }
func hctlState(w uint64) DetectState { return DetectState(w & 0xff) }

// Health control line: one per slot, fabric atomics ONLY — like
// membership's control line it must never share a line with the plainly
// written record, or a record write-back would clobber a concurrent CAS.
//
//	w0 ctl       gen|node|state (all transitions via CAS64)
//	w1 stampVNS  rack virtual time of the last verdict transition
//
//flac:shared
//flac:published-by=CAS64
type HCtlLine struct {
	Ctl      uint64
	StampVNS uint64
}

const (
	hctlLineBytes = fabric.LineSize
	offHCtl       = 0
	offHStamp     = 8
)

// Config tunes the anomaly detector. Zero values get defaults sized for
// the simulated rack's microsecond ticks and its latency model.
type Config struct {
	// Tick is the agent's sample-and-observe period (default 200µs,
	// matching membership's heartbeat tick).
	Tick time.Duration
	// Alpha is the EWMA smoothing factor for the latency and error
	// predictors (default 0.3; see reliability.NewPredictor).
	Alpha float64
	// LatFactor: a node is latency-degraded when its own smoothed
	// ns-per-op exceeds LatFactor times the rack median (default 3).
	LatFactor float64
	// LatFloorNS guards the ratio test against tiny absolute numbers: a
	// node is never latency-degraded below this many ns per op however
	// the median compares (default 1000).
	LatFloorNS uint64
	// LinkHops: a node whose published link degradation reaches this
	// many extra hops is degraded outright — the signal is a direct
	// reading, no smoothing needed (default 4).
	LinkHops uint64
	// ErrMilli: a node is error-degraded when its smoothed errors per
	// window reach this fixed-point-milli value (default 500 = 0.5
	// errors per window).
	ErrMilli uint64
	// EnterStrikes is how many consecutive agent ticks the degraded
	// condition must hold before the verdict flips (default 3); the
	// strike counter is observer-local, exactly like membership's
	// DeadStrikes, so a stalled observer cannot rush a verdict.
	EnterStrikes int
	// ExitStrikes is the recovery hysteresis: consecutive healthy ticks
	// before Degraded flips back to OK (default 8 — recover slower than
	// you detect, or a flapping link saws the controller back and
	// forth).
	ExitStrikes int
	// ExitFactor scales the enter thresholds for the recovery test so
	// the two bands never touch: signals must fall below ExitFactor
	// times the enter threshold to count as healthy (default 0.75).
	ExitFactor float64
}

func (c *Config) fillDefaults() {
	if c.Tick == 0 {
		c.Tick = 200 * time.Microsecond
	}
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.LatFactor == 0 {
		c.LatFactor = 3
	}
	if c.LatFloorNS == 0 {
		c.LatFloorNS = 1000
	}
	if c.LinkHops == 0 {
		c.LinkHops = 4
	}
	if c.ErrMilli == 0 {
		c.ErrMilli = 500
	}
	if c.EnterStrikes == 0 {
		c.EnterStrikes = 3
	}
	if c.ExitStrikes == 0 {
		c.ExitStrikes = 8
	}
	if c.ExitFactor == 0 {
		c.ExitFactor = 0.75
	}
}

// Layer is the rack's health table: one record line and one control
// line per membership slot, plus the host-side degraded mirror. It
// rides the membership table's slot space — slot i here is slot i
// there — so a verdict and the liveness state it annotates always name
// the same (node, generation).
type Layer struct {
	fab *fabric.Fabric
	mem *membership.Table
	cfg Config

	recG  fabric.GPtr // health records, one line per slot (cached writes)
	hctlG fabric.GPtr // health control lines, one per slot (atomics only)

	// degraded mirrors each NODE's verdict as this host's agents last
	// observed it — the zero-fabric-cost oracle for placement paths;
	// authoritative state is always the control word.
	degraded []atomic.Bool
}

// New lays the health table out in the fabric's global memory alongside
// mem's slots.
func New(mem *membership.Table, cfg Config) *Layer {
	cfg.fillDefaults()
	f := mem.Fabric()
	slots := uint64(mem.Slots())
	return &Layer{
		fab:      f,
		mem:      mem,
		cfg:      cfg,
		recG:     f.Reserve(slots*recordBytes, fabric.LineSize),
		hctlG:    f.Reserve(slots*hctlLineBytes, fabric.LineSize),
		degraded: make([]atomic.Bool, f.NumNodes()),
	}
}

func (l *Layer) recSlotG(slot int) fabric.GPtr { return l.recG.Add(uint64(slot) * recordBytes) }
func (l *Layer) hctlSlotG(slot int) fabric.GPtr {
	return l.hctlG.Add(uint64(slot)*hctlLineBytes + offHCtl)
}
func (l *Layer) hstampG(slot int) fabric.GPtr {
	return l.hctlG.Add(uint64(slot)*hctlLineBytes + offHStamp)
}

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

// VerdictInfo is one slot's decoded health control state (debug, tests).
type VerdictInfo struct {
	Slot       int
	State      DetectState
	Node       int
	Generation uint64
	StampVNS   uint64
}

// Verdicts reads every slot's health control word through node n.
func (l *Layer) Verdicts(n *fabric.Node) []VerdictInfo {
	out := make([]VerdictInfo, l.mem.Slots())
	for i := range out {
		w := n.AtomicLoad64(l.hctlSlotG(i))
		out[i] = VerdictInfo{
			Slot:       i,
			State:      hctlState(w),
			Node:       hctlNode(w),
			Generation: hctlGen(w),
			StampVNS:   n.AtomicLoad64(l.hstampG(i)),
		}
	}
	return out
}

// Join attaches a health agent to membership member m: the agent
// publishes m's node's own signals into the slot's health record and
// runs the anomaly detector over every slot, raising EvDegraded /
// EvRecovered through m's event stream. Call Start to boot it.
func (l *Layer) Join(m *membership.Member, src SignalSource) *Agent {
	a := &Agent{
		l:        l,
		m:        m,
		n:        m.Node(),
		src:      src,
		latP:     reliability.NewPredictor(l.cfg.Alpha),
		errP:     reliability.NewPredictor(l.cfg.Alpha),
		lastHCtl: make([]uint64, l.mem.Slots()),
		eval:     make(map[int]*slotEval),
		stop:     make(chan struct{}),
	}
	return a
}

// slotEval is one agent's running evaluation state for a slot.
type slotEval struct {
	gen     uint64 // generation the strike history belongs to
	strikes int    // consecutive degraded ticks (toward EnterStrikes)
	clears  int    // consecutive healthy ticks (toward ExitStrikes)
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

	trw atomic.Pointer[trace.Writer]

	// Detector state, all node-local host memory.
	lastHCtl []uint64
	eval     map[int]*slotEval

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	wg       sync.WaitGroup
}

// SetTrace attaches a flight-recorder writer; verdict transitions this
// agent wins then land in the rack timeline as SubHealth events.
func (a *Agent) SetTrace(w *trace.Writer) { a.trw.Store(w) }

func (a *Agent) tw() *trace.Writer { return a.trw.Load() }

// Start boots the agent's sample-and-observe loop. Idempotent. The
// goroutine absorbs the fabric panic of its own node's crash — the
// record freezes exactly at the crash, and the other agents' generation
// guard retires it with the membership state.
func (a *Agent) Start() {
	if !a.started.CompareAndSwap(false, true) {
		return
	}
	a.wg.Add(1)
	go a.loop()
}

// Stop halts the agent (idempotent; safe after the node crashed).
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}

func (a *Agent) loop() {
	defer a.wg.Done()
	defer a.n.AbsorbCrash() // this agent died with its node
	tick := time.NewTicker(a.l.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-tick.C:
			a.publishSample()
			a.observeAll()
		}
	}
}

// publishSample folds one window of the node's own signals into the
// EWMAs and republishes the slot's health record — same single
// write-back publication contract as the membership heartbeat, with the
// seq counter as the line's last-committed publication word.
func (a *Agent) publishSample() {
	sg := a.src.Sample()
	if sg.Ops > 0 {
		a.latP.Observe(sg.VirtualNS / sg.Ops)
	}
	a.errP.Observe(sg.Errors)
	a.seq++
	line := EncodeRecord(Record{
		Node:          uint8(a.n.ID()),
		Slot:          uint8(a.m.Slot()),
		Generation:    a.m.Generation(),
		LatEWMANS:     uint64(a.latP.Rate()),
		ErrEWMAMilli:  uint64(a.errP.Rate() * ewmaScale),
		LeaseExpiries: uint32(sg.LeaseExpiries),
		ClaimFails:    uint32(sg.ClaimFails),
		LinkHops:      sg.LinkHops,
		Seq:           a.seq,
	})
	g := a.l.recSlotG(a.m.Slot())
	a.n.Write(g, line[:])
	a.n.WriteBackRange(g, recordBytes)
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
		rec, err := a.readRecord(slot)
		if err != nil || rec.Generation != mem[slot].Generation || int(rec.Node) != mem[slot].Node {
			continue // torn, stale-generation, or recycled-slot record: no information
		}
		recs[slot] = rec
		lats = append(lats, rec.LatEWMANS)
	}
	median := medianU64(lats)

	// Pass 2: per-slot verdicts and event synthesis.
	for slot := 0; slot < slots; slot++ {
		hw := a.n.AtomicLoad64(a.l.hctlSlotG(slot))
		cur := hw
		st := mem[slot].State
		live := st == membership.StateJoining || st == membership.StateAlive || st == membership.StateSuspect

		if !live || (hw != 0 && hctlGen(hw) != mem[slot].Generation) {
			// The occupant died, left, or rejoined under a new generation:
			// liveness wins, the stale verdict is cleared without an event
			// (consumers hear about death from the membership stream).
			delete(a.eval, slot)
			if hw != 0 && a.n.CAS64(a.l.hctlSlotG(slot), hw, 0) {
				a.n.AtomicStore64(a.l.hstampG(slot), a.n.VirtualNS())
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
		healthy := !a.degradedNow(rec, median, a.l.cfg.ExitFactor)

		switch hctlState(hw) {
		case HealthDegraded:
			ev.strikes = 0
			if healthy {
				ev.clears++
			} else {
				ev.clears = 0
			}
			if ev.clears >= a.l.cfg.ExitStrikes {
				ev.clears = 0
				next := packHCtl(mem[slot].Generation, mem[slot].Node, HealthOK)
				if a.n.CAS64(a.l.hctlSlotG(slot), hw, next) {
					a.n.AtomicStore64(a.l.hstampG(slot), a.n.VirtualNS())
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
			if ev.strikes >= a.l.cfg.EnterStrikes {
				ev.strikes = 0
				next := packHCtl(mem[slot].Generation, mem[slot].Node, HealthDegraded)
				if a.n.CAS64(a.l.hctlSlotG(slot), hw, next) {
					a.n.AtomicStore64(a.l.hstampG(slot), a.n.VirtualNS())
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
// the enter test, ExitFactor for the recovery test, so the bands never
// touch).
func (a *Agent) degradedNow(rec Record, median uint64, factor float64) bool {
	cfg := &a.l.cfg
	latBad := median > 0 &&
		float64(rec.LatEWMANS) > cfg.LatFactor*factor*float64(median) &&
		float64(rec.LatEWMANS) >= factor*float64(cfg.LatFloorNS)
	hopsBad := float64(rec.LinkHops) >= factor*float64(cfg.LinkHops)
	errBad := float64(rec.ErrEWMAMilli) >= factor*float64(cfg.ErrMilli)
	return latBad || hopsBad || errBad
}

// diffHCtl synthesizes EvDegraded/EvRecovered by comparing slot's
// health control word against what this agent last saw, updating the
// host-side degraded mirror on the way. A word cleared by death or
// rejoin delivers nothing: the membership stream already carries the
// transition that killed the verdict, and dead beats degraded.
func (a *Agent) diffHCtl(slot int, w uint64) {
	prev := a.lastHCtl[slot]
	if w == prev {
		return
	}
	a.lastHCtl[slot] = w
	switch {
	case hctlState(w) == HealthDegraded:
		a.l.setDegradedMirror(hctlNode(w), true)
		a.m.Publish(membership.Event{
			Kind: membership.EvDegraded, Slot: slot,
			Node: hctlNode(w), Generation: hctlGen(w),
		})
	case hctlState(prev) == HealthDegraded:
		a.l.setDegradedMirror(hctlNode(prev), false)
		if hctlState(w) == HealthOK && hctlGen(w) == hctlGen(prev) {
			a.m.Publish(membership.Event{
				Kind: membership.EvRecovered, Slot: slot,
				Node: hctlNode(w), Generation: hctlGen(w),
			})
		}
	}
}

// readRecord pulls slot's health record line through this node's cache.
func (a *Agent) readRecord(slot int) (Record, error) {
	g := a.l.recSlotG(slot)
	a.n.InvalidateRange(g, recordBytes)
	var line [recordBytes]byte
	a.n.Read(g, line[:])
	return DecodeRecord(line, slot)
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
