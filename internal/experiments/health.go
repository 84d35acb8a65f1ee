package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/health"
	"flacos/internal/metrics"
	"flacos/internal/redis"
	"flacos/internal/sched"
	"flacos/internal/torture"
)

// HealthConfig parameterizes the gray-failure remediation experiment.
type HealthConfig struct {
	// TasksPerLevel is how many closed-loop tasks each mode runs at each
	// ramp level (and in the healthy warmup) — the requests whose fabric
	// cost tail is the experiment's headline.
	TasksPerLevel int
}

// DefaultHealth is the acceptance setup.
func DefaultHealth() HealthConfig { return HealthConfig{TasksPerLevel: 240} }

// QuickHealth runs a third of the tasks per ramp level; the ramp itself
// (and with it the accounting-derived bench headline) is the full run's.
func QuickHealth() HealthConfig { return HealthConfig{TasksPerLevel: 80} }

const (
	// healthNodes sizes the rack. The last node is the gray-failure
	// victim; node 0 hosts the self-healing controller and never degrades.
	healthNodes = 4
	// healthClients is the closed-loop submitter parallelism.
	healthClients = 4
	// healthAtomicsPerTask is each task's fabric work: home-memory atomics
	// that pay the full (degraded) hop cost on whichever node executes them.
	healthAtomicsPerTask = 96
	// healthCrashBurst is the crash round's lingering-task burst.
	healthCrashBurst = 16 * healthClients
	// healthGate is the required baseline/proactive p99 task-cost ratio
	// under degradation.
	healthGate = 1.2
)

// healthRampHops is the ascending link-degradation schedule injected on
// the victim (extra interconnect hops per home-memory access). The first
// level sits at the anomaly detector's LinkHops threshold, so proactive
// mode drains at the foot of the ramp.
var healthRampHops = []int{4, 10, 24}

// Health measures the health layer (internal/health) end to end: the
// anomaly detector plus the self-healing controller against a
// liveness-only baseline, under a SetLinkDegradation ramp on one node of
// the rack.
//
// Two clocks, each used where it is honest. Task latency is VIRTUAL
// nanoseconds — each task records its executing node's deterministic
// fabric cost, so the tail comparison is reproducible and independent of
// host scheduling (a degraded node's tasks cost more because every
// home-memory atomic pays the extra hops). Remediation timings
// (degrade->drained, crash->Dead, rejoin) are WALL nanoseconds, because
// the detectors are ticker-driven: virtual time does not advance while
// an anomaly sits undetected.
//
//   - Proactive mode: membership + health agents on every node + the
//     drain -> fence -> re-place controller on node 0. The detector sees
//     the hop ramp, raises EvDegraded, and the controller gates the
//     victim out of scheduling and fences its store generation EARLY —
//     while the node is still alive. Measured: degrade->drained wall
//     latency, steady-state task cost under the ramp (the victim serves
//     nothing, so the tail stays healthy), the zombie probe (a view at
//     the drained generation must observe ErrFenced before any death),
//     recovery rejoin when the ramp clears, and a crash round (dead
//     sweep, restart, rejoin, post-death fence).
//   - Reactive baseline: membership only. Phi-accrual never declares the
//     gray node dead — it heartbeats on time, just slowly — so every
//     task placed there pays the degraded link for the whole ramp.
//
// It fails when the drain or rejoin never completes, a zombie write
// leaks through the early or post-death fence, the baseline's gray node
// is declared dead (which would invalidate the comparison), exactly-once
// breaks, or the proactive tail improvement misses healthGate.
func Health(cfg HealthConfig) *Result {
	res := newResult("Health: gray-failure anomaly detection and self-healing drain vs liveness-only baseline",
		"phase", "mode", "metric", "value")
	const victim = healthNodes - 1
	// since reports a wall duration measured from t, or fails the gate.
	since := func(ok bool, phase, metric string, t time.Time, gate string) {
		if ok {
			res.Table.AddRow(phase, "proactive", metric, ns(float64(time.Since(t).Nanoseconds())))
		} else {
			res.Fail("%s", gate)
		}
	}

	// --- Proactive mode: health layer + controller. ---
	pro := newHealthRack(cfg, true)
	proHealthy := metrics.NewHistogram()
	pro.runPhase(cfg.TasksPerLevel, proHealthy)

	preGen := pro.rack.Member(victim).Generation()
	degradeAt := time.Now()
	pro.node(victim).SetLinkDegradation(healthRampHops[0])
	since(awaitStage(pro.drained), "detect", "degrade -> drained (wall)", degradeAt,
		"proactive drain never completed after the first ramp level")
	// The early-fence zombie probe, BEFORE any death: the drained node is
	// alive, but a view carrying its pre-drain generation must already be
	// write-dead.
	if err := pro.rack.Store.AttachGen(pro.node(victim), preGen).Set("warm", []byte("necro"), 0); !errors.Is(err, redis.ErrFenced) {
		res.Fail("early fence leaked: pre-drain view wrote through while the node was still alive (err=%v)", err)
	}
	res.Table.AddRow("fencing", "proactive", "zombie write while drained node still alive", "fenced")

	proDeg := metrics.NewHistogram()
	for _, hops := range healthRampHops {
		pro.node(victim).SetLinkDegradation(hops)
		pro.runPhase(cfg.TasksPerLevel, proDeg)
	}

	// Ramp clears: the detector's hysteresis flips the verdict back and
	// the controller rejoins the victim under a bumped generation.
	recoverAt := time.Now()
	pro.node(victim).SetLinkDegradation(0)
	since(awaitStage(pro.rejoined), "recover", "ramp clear -> rejoined (wall)", recoverAt,
		"proactive rejoin never completed after the ramp cleared")
	servesAt := time.Now()
	since(pro.waitServes(victim), "recover", "rejoined -> victim serving again (wall)", servesAt,
		"rejoined victim never served a task again")

	// Crash round: dead beats degraded — the controller's death sweep
	// (gate, reclaim, post-death fence) and the crash-restart rejoin.
	if detect, complete, leak, ok := pro.crashRound(victim); ok {
		res.Table.AddRow("crash", "proactive", "crash -> Dead (wall)",
			ns(float64(detect.Nanoseconds())))
		res.Table.AddRow("crash", "proactive", "crash -> burst complete (wall)",
			ns(float64(complete.Nanoseconds())))
		if leak {
			res.Fail("post-death fence leaked: dead-generation view wrote through after restart")
		} else {
			res.Table.AddRow("fencing", "proactive", "zombie write after crash+restart", "fenced")
		}
	} else {
		res.Fail("crash round timed out (detection, completion, or restart rejoin)")
	}
	servesAt = time.Now()
	since(pro.waitServes(victim), "crash", "restart rejoin -> victim serving again (wall)", servesAt,
		"crash-restarted victim never served a task again")
	auditExactlyOnce(res, pro.rack, "proactive")
	pro.rack.Stop()

	// --- Reactive baseline: membership only. ---
	rea := newHealthRack(cfg, false)
	reaHealthy := metrics.NewHistogram()
	rea.runPhase(cfg.TasksPerLevel, reaHealthy)
	reaDeg := metrics.NewHistogram()
	for _, hops := range healthRampHops {
		rea.node(victim).SetLinkDegradation(hops)
		rea.runPhase(cfg.TasksPerLevel, reaDeg)
	}
	if rea.rack.Table.Alive(victim) {
		res.Table.AddRow("detect", "liveness-only baseline", "gray victim declared Dead",
			"never (heartbeats keep flowing)")
	} else {
		// A dead verdict on a slow-but-beating node would mean the
		// baseline measured crash recovery, not gray failure.
		res.Fail("baseline declared the gray (alive, heartbeating) victim dead")
	}
	rea.node(victim).SetLinkDegradation(0)
	auditExactlyOnce(res, rea.rack, "liveness-only baseline")
	rea.rack.Stop()

	for _, row := range []struct {
		phase, mode string
		h           *metrics.Histogram
	}{
		{"healthy", "proactive", proHealthy},
		{"healthy", "liveness-only baseline", reaHealthy},
		{"degraded", "proactive", proDeg},
		{"degraded", "liveness-only baseline", reaDeg},
	} {
		s := row.h.Summarize()
		res.Table.AddRow(row.phase, row.mode, "task fabric cost (virtual) p50/p99",
			fmt.Sprintf("%s / %s", ns(s.P50), ns(s.P99)))
	}

	tailRatio := ratio(reaDeg.Summarize().P99, proDeg.Summarize().P99)
	res.Ratios["degraded p99 baseline/proactive"] = tailRatio
	res.Ratios["degraded mean baseline/proactive"] = ratio(reaDeg.Mean(), proDeg.Mean())
	if tailRatio < healthGate {
		res.Fail("proactive drain improved the degraded tail %.2fx over the baseline, want >= %.2fx", tailRatio, healthGate)
	}

	res.Bench = healthBench()
	return res
}

// awaitStage waits for the controller to signal a pipeline stage.
func awaitStage(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(memWaitTimeout):
		return false
	}
}

// healthRack is one mode's control rack — accounting fabric, membership
// on every node, plus the health layer and the self-healing controller in
// proactive mode (the baseline's only remediator is the classic
// phi-accrual Dead sweep, which never fires for a gray node: that is the
// point) — and the experiment's probes.
type healthRack struct {
	rack      *torture.ControlRack
	scratch   fabric.GPtr
	started   []atomic.Uint64 // per node: tasks that began executing there
	nextPref  atomic.Uint64   // round-robin preferred-node cursor
	phaseHist atomic.Pointer[metrics.Histogram]

	drained  chan struct{}
	rejoined chan struct{}
}

func newHealthRack(cfg HealthConfig, proactive bool) *healthRack {
	// The controller signals each stage at most once per pipeline run and
	// the experiment consumes every signal before triggering the next, so
	// one slot is never overrun; a few spare absorb a flapping verdict.
	r := &healthRack{
		started:  make([]atomic.Uint64, healthNodes),
		drained:  make(chan struct{}, 4),
		rejoined: make(chan struct{}, 4),
	}
	f := fabric.New(fabric.Config{
		GlobalSize: 64 << 20,
		Nodes:      healthNodes,
		// Accounting-only: the injected hops show up in every task's
		// recorded virtual cost without busy-waiting the host (which
		// would starve the heartbeat tickers on small CI machines).
		Latency: fabric.DefaultLatency(),
	})
	r.scratch = f.Reserve(fabric.LineSize, fabric.LineSize)
	r.rack = torture.NewControlRack(f, torture.ControlConfig{
		Store: redis.RackStoreConfig{ArenaBytes: 4 << 20, MaxViews: 64},
		// Every task the experiment will ever submit (phases, serving
		// probes, the crash burst) gets its own DoneCell for the audit.
		Tasks:       (len(healthRampHops)+2)*cfg.TasksPerLevel + 2*servesProbeCap + healthCrashBurst + 64,
		Body:        r.task,
		PhiDead:     8,
		DeadStrikes: 3,
		Health:      proactive,
		OnStage:     r.onStage,
	})
	if err := r.rack.Store.Attach(f.Node(0)).Set("warm", []byte("committed"), 0); err != nil {
		panic(err)
	}
	return r
}

func (r *healthRack) node(id int) *fabric.Node { return r.rack.Fab.Node(id) }

// task is the closed-loop request: linger == 1 marks the crash burst,
// which stays mid-task long enough for the crash to land while this node
// holds the lease. Its fabric work always reaches home memory, so it
// pays the full hop cost of whichever node executes it.
func (r *healthRack) task(n *fabric.Node, linger uint64) {
	r.started[n.ID()].Add(1)
	if linger == 1 {
		time.Sleep(200 * time.Microsecond)
	}
	v0 := n.VirtualNS()
	for i := 0; i < healthAtomicsPerTask; i++ {
		n.AtomicLoad64(r.scratch)
	}
	if h := r.phaseHist.Load(); h != nil {
		h.Record(float64(n.VirtualNS() - v0))
	}
}

func (r *healthRack) onStage(st health.Stage, node int, gen uint64) {
	switch st {
	case health.StageDrained:
		select {
		case r.drained <- struct{}{}:
		default:
		}
	case health.StageRejoined:
		select {
		case r.rejoined <- struct{}{}:
		default:
		}
	}
}

// submit queues one task through node 0. Tasks cycle their preferred
// node over the whole rack — the victim included — so placement policy,
// not the submitter, decides who pays for the ramp.
func (r *healthRack) submit(linger uint64) sched.Handle {
	return r.rack.Tasks.Submit(r.node(0), linger, int(r.nextPref.Add(1)%healthNodes))
}

// runPhase runs count closed-loop tasks across healthClients submitters;
// each task records its own fabric cost into hist from whichever node
// executed it.
func (r *healthRack) runPhase(count int, hist *metrics.Histogram) {
	r.phaseHist.Store(hist)
	defer r.phaseHist.Store(nil)
	fanOut(healthClients, func(int) {
		for i := 0; i < count/healthClients; i++ {
			r.rack.Sched.Wait(r.node(0), r.submit(0))
		}
	})
}

// servesProbeCap bounds waitServes' probe submissions so the DoneCell
// arena stays sized even if the gate never reopens.
const servesProbeCap = 2000

// waitServes proves node id is pulling rack work again: it submits probe
// tasks preferred there until one actually begins executing on it.
func (r *healthRack) waitServes(id int) bool {
	start := time.Now()
	s0 := r.started[id].Load()
	for i := 0; i < servesProbeCap && time.Since(start) <= memWaitTimeout; i++ {
		r.rack.Sched.Wait(r.node(0), r.rack.Tasks.Submit(r.node(0), 0, id))
		if r.started[id].Load() > s0 {
			return true
		}
	}
	return false
}

// crashRound crashes the victim mid-task under load and returns
// (crash->Dead, crash->burst complete, post-restart zombie leak, ok).
// The controller's death sweep owns remediation; afterwards the node is
// restarted, rebooted in sched, and rejoined under a fresh generation.
func (r *healthRack) crashRound(victim int) (detect, complete time.Duration, leak, ok bool) {
	tb := r.rack.Table
	if !waitFor(50*time.Microsecond, func() bool { return tb.Alive(victim) }) {
		return 0, 0, false, false
	}
	deadGen := r.rack.Member(victim).Generation()

	s0 := r.started[victim].Load()
	hs := make([]sched.Handle, 0, healthCrashBurst)
	for i := 0; i < healthCrashBurst; i++ {
		hs = append(hs, r.submit(1)) // lingering tasks: the crash lands mid-task
	}
	if !waitFor(10*time.Microsecond, func() bool { return r.started[victim].Load() != s0 }) {
		return 0, 0, false, false
	}
	crashAt := time.Now()
	r.node(victim).Crash()
	if !waitFor(20*time.Microsecond, func() bool { return !tb.Alive(victim) }) {
		return 0, 0, false, false
	}
	detect = time.Since(crashAt)
	for _, h := range hs {
		r.rack.Sched.Wait(r.node(0), h)
	}
	complete = time.Since(crashAt)

	r.node(victim).Restart()
	if r.rack.Restarted(victim) != nil {
		return 0, 0, false, false
	}
	// The controller's death sweep runs on its own event path (it needs
	// its observer's Dead strikes, not just the table's verdict), so the
	// fence may rise an instant after the burst completes: poll. A leak
	// is a dead-generation write still going through once the sweep has
	// had memWaitTimeout to fire.
	view := r.rack.Store.AttachGen(r.node(victim), deadGen)
	leak = !waitFor(50*time.Microsecond, func() bool {
		return errors.Is(view.Set("warm", []byte("necro"), 0), redis.ErrFenced)
	})
	return detect, complete, leak, true
}

// healthBench computes the experiment's machine-readable headline on a
// separate accounting-only fabric from the ramp alone, so
// BENCH_health.json is bit-identical across runs, hosts, and -quick vs
// full sizes (wall numbers would churn
// the tracked artifact on every CI machine): the VIRTUAL per-op cost a
// task pays on a healthy link (p50, and the throughput it implies)
// versus at the worst ramp level (p99) — the latency cliff the drain
// removes from the tail.
func healthBench() *Bench {
	f := fabric.New(fabric.Config{
		GlobalSize: 1 << 20,
		Nodes:      2,
		Latency:    fabric.DefaultLatency(), // LatencyAccount: exact, no wall time
	})
	n := f.Node(1)
	g := f.Reserve(fabric.LineSize, fabric.LineSize)
	perOp := func(hops int) float64 {
		n.SetLinkDegradation(hops)
		const probes = 256
		before := n.Stats().VirtualNS
		for i := 0; i < probes; i++ {
			n.AtomicLoad64(g)
		}
		return float64(n.Stats().VirtualNS-before) / probes
	}
	base := perOp(0)
	worst := base
	for _, hops := range healthRampHops {
		if c := perOp(hops); c > worst {
			worst = c
		}
	}
	return &Bench{
		Name:      "health",
		OpsPerSec: 1e9 / base,
		P50NS:     base,
		P99NS:     worst,
	}
}
