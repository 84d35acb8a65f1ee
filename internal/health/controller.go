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
//	EvDegraded  -> drain: gate the scheduler and fence the store EARLY
//	               (before the node is dead — a gray-failing node's
//	               writes are the zombie writes most worth stopping).
//	EvDead      -> abort any in-flight drain and run the classic death
//	               sweep (gate, lease reclaim, fence); dead beats
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
	// StageFence: the store fences the node's CURRENT generation —
	// before death, not after. From here the degraded node cannot write.
	StageFence
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
	// StageDead: the death sweep for the node completed.
	StageDead
)

func (s Stage) String() string {
	switch s {
	case StageGate:
		return "gate"
	case StageFence:
		return "fence"
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
	maskFence
	maskAborted
)

// SchedGate is the slice of sched the controller drives.
type SchedGate interface {
	SetNodeServing(id int, serving bool)
	ReclaimNode(from *fabric.Node, dead int) int
}

// StoreGate is the slice of redis the controller drives.
type StoreGate interface {
	FenceNode(from *fabric.Node, nodeID int, gen uint64) int
}

// ControllerConfig wires the controller to the subsystems it remediates
// through: the scheduler it gates and reclaims leases in, and the store
// it fences. Every field except From is optional: a nil gate is skipped.
// Serverless containers and tiered pages are not the controller's: a
// drained node keeps its warm instances and its local pages.
type ControllerConfig struct {
	Sched SchedGate
	Store StoreGate
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
	// CASes, lease-reclaim sweeps) execute through. Required.
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

// Controller is the self-healing controller. One instance consumes one
// member's event stream; run it on a node expected to stay up (or one
// per node — every action it takes is idempotent or CAS/fence
// protected, so duplicated controllers are safe, merely wasteful).
type Controller struct {
	cfg ControllerConfig

	trw atomic.Pointer[trace.Writer]

	mu    sync.Mutex
	nodes map[int]*nodeState
	swept map[[2]uint64]bool // (slot, gen) deaths already swept
}

// NewController builds a controller; the caller feeds it events through
// OnEvent, usually by subscribing OnEvent to one member's stream. Events
// are handled inline on the delivering goroutine. cfg.From must be set.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.From == nil {
		panic("health: ControllerConfig.From is required")
	}
	return &Controller{cfg: cfg, nodes: make(map[int]*nodeState), swept: make(map[[2]uint64]bool)}
}

// SetTrace attaches a flight-recorder writer for the remediation spans.
func (c *Controller) SetTrace(w *trace.Writer) { c.trw.Store(w) }

func (c *Controller) tw() *trace.Writer { return c.trw.Load() }

// brokenSkipDrainFence is the planted self-test break: when set, every
// controller's drain pipeline SKIPS the early-fence stage, so a
// drained-but-not-dead node can keep writing through its old views —
// exactly the bug the torture zombie-write checker exists to catch.
var brokenSkipDrainFence atomic.Bool

// SetBrokenSkipDrainFence plants the skip-drain-fence bug for every
// controller in the process — the torture harness's
// ApplyBreak("drain-fence"). Never set outside the planted-broken
// self-test.
func SetBrokenSkipDrainFence(v bool) { brokenSkipDrainFence.Store(v) }

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

// OnEvent is the controller's subscriber. Subscribed to one member, it
// runs on that member's agent goroutine and sees the member's liveness
// and health events in one order, each handled to completion before the
// next. It is exported so tests can inject events directly, and it stays
// safe under concurrent calls: a death delivered while a drain runs
// aborts the drain at its next stage boundary.
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
// in a fixed order with an abort check between each: gate -> fence. A
// concurrent EvDead flips deadGen and the pipeline stops at the next
// boundary — remediation continuity is the death sweep's job from that
// point.
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
			c.stage(StageFence, node, gen)
			if c.cfg.Store != nil && !brokenSkipDrainFence.Load() {
				c.cfg.Store.FenceNode(c.cfg.From, node, gen)
				if tw := c.tw(); tw != nil {
					tw.Emit(trace.SubHealth, trace.KFenceEarly, 0, uint64(node), gen+1)
				}
			}
			mask |= maskFence
			done = true
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
		c.stage(StageAbort, node, gen)
		return
	}
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
	if ok && c.cfg.Sched != nil {
		c.cfg.Sched.SetNodeServing(node, true)
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
		c.stage(StageRejoined, node, gen)
	}
}

// dead reacts to EvDead: record the death (aborting any in-flight drain
// at its next stage boundary) and run the classic death sweep exactly
// once per (slot, generation).
func (c *Controller) dead(ev membership.Event) {
	key := [2]uint64{uint64(ev.Slot), ev.Generation}
	c.mu.Lock()
	if c.swept[key] {
		c.mu.Unlock()
		return
	}
	c.swept[key] = true
	st := c.node(ev.Node)
	if ev.Generation > st.deadGen {
		st.deadGen = ev.Generation
	}
	if st.gen <= ev.Generation {
		st.phase, st.pendingRecover = phaseIdle, false
	}
	// Restart can beat detection: if the controller has already seen the
	// node alive under a NEWER generation, this death names a finished
	// incarnation — run the generation-scoped sweep (reclaim and fence
	// are idempotent or fenced by gen) but leave the serving
	// gate alone, or a late verdict would bench a live, rejoined node.
	gate := st.seenGen <= ev.Generation
	c.mu.Unlock()

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
		if tw := c.tw(); tw != nil {
			tw.Emit(trace.SubRedis, trace.KViewFence, 0, uint64(ev.Node), ev.Generation)
		}
	}
	c.stage(StageDead, ev.Node, ev.Generation)
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
	if reopen && c.cfg.Sched != nil {
		c.cfg.Sched.SetNodeServing(node, true)
	}
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
