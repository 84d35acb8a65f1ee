package health

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/membership"
	"flacos/internal/trace"
)

// The self-healing controller is the action half of the health layer:
// it consumes the unified membership+health event stream and runs the
// remediation pipeline against a live, loaded rack.
//
//	EvDegraded  -> drain: gate the scheduler, evict serverless
//	               instances, fence the store EARLY (before the node is
//	               dead — a gray-failing node's writes are the zombie
//	               writes most worth stopping), and re-place memory by
//	               draining the node in the tiering daemon.
//	EvDead      -> abort any in-flight drain and run the classic death
//	               sweep (lease reclaim, fence, evict); dead beats
//	               degraded, always.
//	EvRecovered -> rejoin: membership rejoin under a bumped generation
//	               (the early fence made the old generation unusable by
//	               design), then reopen every gate the drain closed.
//
// Every stage is traced as a SubHealth span and every stage boundary is
// an abort point: an EvDead that lands mid-drain wins the race cleanly
// — the drain stops where it is, and the death sweep (idempotent,
// generation-fenced) covers whatever the drain had not gotten to.

// Stage identifies one remediation stage, for trace spans and the
// OnStage test/experiment hook.
type Stage uint8

const (
	// StageGate: sched.SetNodeServing(node, false) — the node stops
	// pulling rack work; in-flight tasks run to completion.
	StageGate Stage = iota
	// StageEvict: serverless controllers evict and re-place the node's
	// warm instances.
	StageEvict
	// StageFence: the store fences the node's CURRENT generation —
	// before death, not after. From here the degraded node cannot write.
	StageFence
	// StageRePlace: the tiering daemon marks the node drained — stops
	// promoting pages toward it and spills its local pages.
	StageRePlace
	// StageDrained: the drain pipeline completed; the node idles fenced.
	StageDrained
	// StageAbort: an EvDead (or a newer generation) interrupted the
	// drain; the death path owns remediation from here.
	StageAbort
	// StageRejoin: recovery rejoin is starting (membership rejoin plus
	// gate reopening).
	StageRejoin
	// StageRejoined: the rejoin pipeline completed; the node serves.
	StageRejoined
	// StageDead: the death sweep ran for the node.
	StageDead
)

func (s Stage) String() string {
	switch s {
	case StageGate:
		return "gate"
	case StageEvict:
		return "evict"
	case StageFence:
		return "fence"
	case StageRePlace:
		return "re-place"
	case StageDrained:
		return "drained"
	case StageAbort:
		return "abort"
	case StageRejoin:
		return "rejoin"
	case StageRejoined:
		return "rejoined"
	case StageDead:
		return "dead"
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Stage-completion bits reported in the KDrain end span's arg1.
const (
	maskGate = 1 << iota
	maskEvict
	maskFence
	maskRePlace
	maskAborted
)

// SchedGate is the slice of sched the controller drives. The wider
// surface (vs signals.go's SchedCounters) is split so racks without a
// scheduler can pass nil for one and not the other.
type SchedGate interface {
	SetNodeServing(id int, serving bool)
	ReclaimNode(from *fabric.Node, dead int) int
}

// StoreGate is the slice of redis the controller drives.
type StoreGate interface {
	FenceNode(from *fabric.Node, nodeID int, gen uint64) int
}

// ServerlessGate is the slice of serverless the controller drives.
type ServerlessGate interface {
	EvictNode(id int) int
}

// TieringGate is the slice of tiering the controller drives.
type TieringGate interface {
	SetNodeDrained(node int, drained bool)
}

// ControllerConfig wires the controller to the subsystems it remediates
// through. Every field except From is optional: nil gates are skipped,
// so a rack running only sched+redis still self-heals what it has.
type ControllerConfig struct {
	Sched      SchedGate
	Store      StoreGate
	Serverless []ServerlessGate
	Tiering    TieringGate
	// Rejoin performs the node-side recovery rejoin: membership rejoin
	// under a bumped generation, resync, re-attach fresh store views.
	// It runs on the controller's event goroutine; returning an error
	// leaves the node drained (a later EvRecovered or EvJoin retries /
	// reopens).
	Rejoin func(node int, gen uint64) error
	// OnStage, when set, is called before each remediation stage runs
	// and after terminal ones complete (Drained/Abort/Rejoined/Dead).
	// Tests use it to hold a drain mid-stage and to observe completion.
	OnStage func(st Stage, node int, gen uint64)
	// From is the live node the controller's fabric operations (fence
	// CASes, lease-reclaim sweeps) execute through.
	From *fabric.Node
}

// node phases.
const (
	phaseIdle = iota
	phaseDraining
	phaseDrained
	phaseRejoining
)

type nodeState struct {
	phase          int
	gen            uint64 // generation being drained / drained at
	deadGen        uint64 // highest generation known dead
	seenGen        uint64 // highest generation seen alive (join/degrade/recover)
	pendingRecover bool   // EvRecovered landed while still draining
}

// sawGen records evidence that node's generation gen was alive. Callers
// hold c.mu.
func (st *nodeState) sawGen(gen uint64) {
	if gen > st.seenGen {
		st.seenGen = gen
	}
}

// ControllerStats counts the controller's remediation activity.
type ControllerStats struct {
	Drains        uint64 // drain pipelines completed
	DrainsAborted uint64 // drains interrupted by death / newer generation
	Rejoins       uint64 // rejoin pipelines completed
	DeadSweeps    uint64 // death sweeps run
}

// Controller is the self-healing controller. One instance subscribes to
// one member's event stream; run it on a node expected to stay up (or
// one per node — every action it takes is idempotent or CAS/fence
// protected, so duplicated controllers are safe, merely wasteful).
type Controller struct {
	cfg ControllerConfig
	m   *membership.Member

	trw atomic.Pointer[trace.Writer]

	mu       sync.Mutex
	nodes    map[int]*nodeState
	deadOnce membership.DeadOnce // one death sweep per (slot, gen)

	// brokenSkipDrainFence is the planted self-test break: when set, the
	// drain pipeline SKIPS the early-fence stage — exactly the bug the
	// torture zombie-write checker exists to catch. See SetBroken*.
	brokenSkipDrainFence atomic.Bool

	stats struct {
		drains, aborted, rejoins, deadSweeps atomic.Uint64
	}
}

// NewController builds a controller over m's event stream and
// subscribes it. Events are handled inline on whichever goroutine
// delivers them (the member's agent, a health agent, or a test). m may
// be nil — cfg.From must then be set and the caller feeds OnEvent
// directly (tests, racks with their own event plumbing).
func NewController(m *membership.Member, cfg ControllerConfig) *Controller {
	if cfg.From == nil {
		cfg.From = m.Node()
	}
	c := &Controller{
		cfg:   cfg,
		m:     m,
		nodes: make(map[int]*nodeState),
	}
	if m != nil {
		m.Subscribe(c.OnEvent)
	}
	return c
}

// SetTrace attaches a flight-recorder writer for the remediation spans.
func (c *Controller) SetTrace(w *trace.Writer) { c.trw.Store(w) }

func (c *Controller) tw() *trace.Writer { return c.trw.Load() }

// SetBrokenSkipDrainFence plants the self-test bug: drains skip the
// early-fence stage, so a drained-but-not-dead node can keep writing
// through its old views — the fenced-zombie-write invariant checker
// MUST catch this. Never set outside the planted-broken self-test.
func (c *Controller) SetBrokenSkipDrainFence(v bool) { c.brokenSkipDrainFence.Store(v) }

// brokenSkipDrainFencePkg is the package-wide form of the planted
// break, flipped by the torture harness's ApplyBreak("drain-fence")
// before any controller exists. Either flag bites.
var brokenSkipDrainFencePkg atomic.Bool

// SetBrokenSkipDrainFence plants the skip-drain-fence bug for every
// controller in the process — the torture break hook. Never set outside
// the planted-broken self-test.
func SetBrokenSkipDrainFence(v bool) { brokenSkipDrainFencePkg.Store(v) }

func (c *Controller) drainFenceBroken() bool {
	return c.brokenSkipDrainFence.Load() || brokenSkipDrainFencePkg.Load()
}

// Stats returns a snapshot of the controller's activity counters.
func (c *Controller) Stats() ControllerStats {
	return ControllerStats{
		Drains:        c.stats.drains.Load(),
		DrainsAborted: c.stats.aborted.Load(),
		Rejoins:       c.stats.rejoins.Load(),
		DeadSweeps:    c.stats.deadSweeps.Load(),
	}
}

func (c *Controller) node(id int) *nodeState {
	st := c.nodes[id]
	if st == nil {
		st = &nodeState{}
		c.nodes[id] = st
	}
	return st
}

func (c *Controller) stage(st Stage, node int, gen uint64) {
	if c.cfg.OnStage != nil {
		c.cfg.OnStage(st, node, gen)
	}
}

// OnEvent is the controller's subscriber. Exported so tests (and racks
// wiring the controller to a different stream) can inject events
// directly; concurrent calls are exactly the production situation — the
// member's agent, every health agent, and the death path all deliver
// from their own goroutines.
func (c *Controller) OnEvent(ev membership.Event) {
	switch ev.Kind {
	case membership.EvDegraded:
		c.drain(ev.Node, ev.Generation)
	case membership.EvRecovered:
		c.recoverNode(ev.Node, ev.Generation)
	case membership.EvDead:
		c.dead(ev)
	case membership.EvJoin:
		c.joined(ev.Node, ev.Generation)
	}
}

// aborted reports whether the drain/rejoin for (node, gen) lost to a
// death or a newer generation.
func (c *Controller) aborted(node int, gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.node(node)
	return st.deadGen >= gen || st.gen != gen
}

// drain runs the proactive pipeline for a degraded node. Stages execute
// in a fixed order with an abort check between each: gate -> evict ->
// fence -> re-place. A concurrent EvDead flips deadGen and the pipeline
// stops at the next boundary — remediation continuity is the death
// sweep's job from that point.
func (c *Controller) drain(node int, gen uint64) {
	c.mu.Lock()
	st := c.node(node)
	st.sawGen(gen)
	if gen <= st.deadGen || st.phase != phaseIdle || gen < st.gen {
		c.mu.Unlock()
		return // dead wins; or a drain/rejoin for this node is already running
	}
	st.phase, st.gen, st.pendingRecover = phaseDraining, gen, false
	c.mu.Unlock()

	if tw := c.tw(); tw != nil {
		tw.Begin(trace.SubHealth, trace.KDrain, uint64(node), gen)
	}
	mask := uint64(0)
	abort := func() bool { return c.aborted(node, gen) }

	done := false
	if !abort() {
		c.stage(StageGate, node, gen)
		if c.cfg.Sched != nil {
			c.cfg.Sched.SetNodeServing(node, false)
		}
		mask |= maskGate
		if !abort() {
			c.stage(StageEvict, node, gen)
			for _, sv := range c.cfg.Serverless {
				if sv != nil {
					sv.EvictNode(node)
				}
			}
			mask |= maskEvict
			if !abort() {
				c.stage(StageFence, node, gen)
				if c.cfg.Store != nil && !c.drainFenceBroken() {
					c.cfg.Store.FenceNode(c.cfg.From, node, gen)
					if tw := c.tw(); tw != nil {
						tw.Emit(trace.SubHealth, trace.KFenceEarly, 0, uint64(node), gen+1)
					}
				}
				mask |= maskFence
				if !abort() {
					c.stage(StageRePlace, node, gen)
					if c.cfg.Tiering != nil {
						c.cfg.Tiering.SetNodeDrained(node, true)
						if tw := c.tw(); tw != nil {
							tw.Emit(trace.SubHealth, trace.KRePlace, 0, uint64(node), gen)
						}
					}
					mask |= maskRePlace
					done = true
				}
			}
		}
	}

	rejoin := false
	c.mu.Lock()
	if done && st.deadGen < gen && st.gen == gen {
		st.phase = phaseDrained
		rejoin = st.pendingRecover
		st.pendingRecover = false
		if rejoin {
			st.phase = phaseRejoining
		}
	} else {
		// Lost to death (or a newer generation's pipeline). Leave the
		// gates as they are: the death sweep and the next join own them.
		if st.gen == gen && st.phase == phaseDraining {
			st.phase = phaseIdle
		}
		mask |= maskAborted
	}
	c.mu.Unlock()

	if tw := c.tw(); tw != nil {
		tw.End(trace.SubHealth, trace.KDrain, uint64(node), mask)
	}
	if mask&maskAborted != 0 {
		c.stats.aborted.Add(1)
		c.stage(StageAbort, node, gen)
		return
	}
	c.stats.drains.Add(1)
	c.stage(StageDrained, node, gen)
	if rejoin {
		// An EvRecovered landed while the drain was still running: the
		// verdict flapped faster than the pipeline. Honor it now, after
		// the drain fully closed every gate — never concurrently.
		c.runRejoin(node, gen)
	}
}

// recoverNode reacts to EvRecovered: rejoin a drained node. If the
// drain is still running the rejoin is deferred to its completion (the
// pipeline never runs both directions at once).
func (c *Controller) recoverNode(node int, gen uint64) {
	c.mu.Lock()
	st := c.node(node)
	st.sawGen(gen)
	if gen <= st.deadGen || st.gen != gen {
		c.mu.Unlock()
		return
	}
	switch st.phase {
	case phaseDraining:
		st.pendingRecover = true
		c.mu.Unlock()
		return
	case phaseDrained:
		st.phase = phaseRejoining
		c.mu.Unlock()
		c.runRejoin(node, gen)
	default:
		c.mu.Unlock()
	}
}

// runRejoin executes the recovery pipeline: the Rejoin callback brings
// the node back under a bumped generation (the early fence made the old
// one unusable — by design), then the gates reopen. Death aborts here
// too: a node that dies mid-rejoin stays gated and fenced.
func (c *Controller) runRejoin(node int, gen uint64) {
	if tw := c.tw(); tw != nil {
		tw.Begin(trace.SubHealth, trace.KRejoin, uint64(node), gen)
	}
	c.stage(StageRejoin, node, gen)
	ok := true
	if c.cfg.Rejoin != nil {
		if err := c.cfg.Rejoin(node, gen); err != nil {
			ok = false
		}
	}
	if ok {
		ok = !c.aborted(node, gen)
	}
	if ok {
		if c.cfg.Tiering != nil {
			c.cfg.Tiering.SetNodeDrained(node, false)
		}
		if c.cfg.Sched != nil {
			c.cfg.Sched.SetNodeServing(node, true)
		}
	}
	c.mu.Lock()
	st := c.node(node)
	if st.gen == gen && st.phase == phaseRejoining {
		if ok {
			st.phase = phaseIdle
		} else {
			st.phase = phaseDrained // retry on the next EvRecovered/EvJoin
		}
	}
	c.mu.Unlock()
	if tw := c.tw(); tw != nil {
		tw.End(trace.SubHealth, trace.KRejoin, uint64(node), boolU64(ok))
	}
	if ok {
		c.stats.rejoins.Add(1)
		c.stage(StageRejoined, node, gen)
	}
}

// dead reacts to EvDead: record the death (aborting any in-flight drain
// at its next stage boundary) and run the classic death sweep exactly
// once per (slot, generation).
func (c *Controller) dead(ev membership.Event) {
	if !c.deadOnce.First(ev) {
		return
	}
	c.mu.Lock()
	st := c.node(ev.Node)
	if ev.Generation > st.deadGen {
		st.deadGen = ev.Generation
	}
	if st.gen <= ev.Generation {
		st.phase, st.pendingRecover = phaseIdle, false
	}
	// Restart can beat detection: if the controller has already seen the
	// node alive under a NEWER generation, this death names a finished
	// incarnation — run the generation-scoped sweep (reclaim, fence,
	// evict are all idempotent or fenced by gen) but leave the serving
	// gate alone, or a late verdict would bench a live, rejoined node.
	gate := st.seenGen <= ev.Generation
	c.mu.Unlock()

	c.stage(StageDead, ev.Node, ev.Generation)
	if c.cfg.Sched != nil {
		if gate {
			c.cfg.Sched.SetNodeServing(ev.Node, false)
		}
		c.cfg.Sched.ReclaimNode(c.cfg.From, ev.Node)
	}
	if c.cfg.Store != nil {
		// The death fence is NOT subject to the planted break: the break
		// models forgetting the early fence, not the classic one.
		c.cfg.Store.FenceNode(c.cfg.From, ev.Node, ev.Generation)
	}
	for _, sv := range c.cfg.Serverless {
		if sv != nil {
			sv.EvictNode(ev.Node)
		}
	}
	if c.cfg.Tiering != nil {
		// Stop the drain spill: moving pages through a dead node's MMU
		// can only fail. Rejoin re-primes placement organically.
		c.cfg.Tiering.SetNodeDrained(ev.Node, false)
	}
	c.stats.deadSweeps.Add(1)
}

// joined reacts to EvJoin: a node rejoining under a NEWER generation
// than any the controller acted against (drained OR death-swept) resets
// the node's remediation state and reopens the gates — this covers the
// crash-restart rejoin path, where recovery happens outside the
// controller's own pipeline, including a crash that was never drained
// (the death sweep still closed the serving gate).
func (c *Controller) joined(node int, gen uint64) {
	c.mu.Lock()
	st := c.node(node)
	st.sawGen(gen)
	reopen := gen > st.gen && gen > st.deadGen &&
		(st.phase == phaseDrained || (st.phase == phaseIdle && (st.gen > 0 || st.deadGen > 0)))
	if reopen {
		st.phase, st.gen, st.pendingRecover = phaseIdle, 0, false
	}
	c.mu.Unlock()
	if !reopen {
		return
	}
	if c.cfg.Tiering != nil {
		c.cfg.Tiering.SetNodeDrained(node, false)
	}
	if c.cfg.Sched != nil {
		c.cfg.Sched.SetNodeServing(node, true)
	}
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
