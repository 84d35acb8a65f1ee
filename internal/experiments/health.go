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
	// healthVictim is the node the ramp degrades.
	healthVictim = healthNodes - 1
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
//   - Reactive baseline: membership and the controller's death sweep,
//     no health agents. Phi-accrual never declares the gray node dead —
//     it heartbeats on time, just slowly — so every task placed there
//     pays the degraded link for the whole ramp.
//
// It fails when the drain or rejoin never completes, a zombie write
// leaks through the early or post-death fence, the baseline's gray node
// is declared dead (which would invalidate the comparison), exactly-once
// breaks, or the proactive tail improvement misses healthGate.
func Health(cfg HealthConfig) *Result {
	res := newResult("Health: gray-failure anomaly detection and self-healing drain vs liveness-only baseline",
		"phase", "mode", "metric", "value")
	proHealthy, proDeg := healthMode(res, cfg, true)
	reaHealthy, reaDeg := healthMode(res, cfg, false)

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

// healthMode runs one mode on its own control rack — accounting fabric,
// membership on every node and the self-healing controller on node 0,
// plus the health layer in proactive mode (the baseline's only
// remediation is the controller's phi-accrual Dead sweep, which never
// fires for a gray node: that is the point) — and returns the task-cost
// histograms of its healthy warm-up and of its ramp.
func healthMode(res *Result, cfg HealthConfig, proactive bool) (healthy, degraded *metrics.Histogram) {
	const victim = healthVictim
	f := fabric.New(fabric.Config{
		GlobalSize: 64 << 20,
		Nodes:      healthNodes,
		// Accounting-only: the injected hops show up in every task's
		// recorded virtual cost without busy-waiting the host (which
		// would starve the heartbeat tickers on small CI machines).
		Latency: fabric.DefaultLatency(),
	})
	scratch := f.Reserve(fabric.LineSize, fabric.LineSize)
	var phaseHist atomic.Pointer[metrics.Histogram]
	rack := torture.NewControlRack(f, torture.ControlConfig{
		Store: redis.RackStoreConfig{ArenaBytes: 4 << 20, MaxViews: 64},
		// Every task the experiment will ever submit (phases, serving
		// probes, the crash burst) gets its own DoneCell for the audit.
		Tasks: (len(healthRampHops)+2)*cfg.TasksPerLevel + 2*servesProbeCap + healthCrashBurst + 64,
		// The closed-loop request: linger == 1 marks the crash burst,
		// which stays mid-task long enough for the crash to land while
		// its node holds the lease. Its fabric work always reaches home
		// memory, so it pays the full hop cost of whichever node
		// executes it.
		Body: func(n *fabric.Node, linger uint64) {
			if linger == 1 {
				time.Sleep(200 * time.Microsecond)
			}
			v0 := n.VirtualNS()
			for i := 0; i < healthAtomicsPerTask; i++ {
				n.AtomicLoad64(scratch)
			}
			if h := phaseHist.Load(); h != nil {
				h.Record(float64(n.VirtualNS() - v0))
			}
		},
		PhiDead:     8,
		DeadStrikes: 3,
		Health:      proactive,
	})
	if err := rack.Store.Attach(f.Node(0)).Set("warm", []byte("committed"), 0); err != nil {
		panic(err)
	}
	n0 := f.Node(0)
	// Tasks cycle their preferred node over the whole rack — the victim
	// included — so placement policy, not the submitter, decides who pays
	// for the ramp.
	var nextPref atomic.Uint64
	submit := func(linger uint64) sched.Handle {
		return rack.Tasks.Submit(n0, linger, int(nextPref.Add(1)%healthNodes))
	}
	// runPhase runs count closed-loop tasks across healthClients
	// submitters; each task records its own fabric cost into hist from
	// whichever node executed it.
	runPhase := func(count int, hist *metrics.Histogram) error {
		phaseHist.Store(hist)
		defer phaseHist.Store(nil)
		errs := make([]error, healthClients)
		fanOut(healthClients, func(c int) {
			for i := 0; i < count/healthClients && errs[c] == nil; i++ {
				errs[c] = rack.WaitTasks(submit(0))
			}
		})
		return errors.Join(errs...)
	}
	mode := "liveness-only baseline"
	if proactive {
		mode = "proactive"
	}
	healthy, degraded = metrics.NewHistogram(), metrics.NewHistogram()
	err := func() error {
		if err := runPhase(cfg.TasksPerLevel, healthy); err != nil {
			return err
		}
		if proactive {
			// Degrade to the ramp's first level, wait for the drain, then
			// probe the early fence BEFORE any death: the drained node is
			// alive, but a view carrying its pre-drain generation must
			// already be write-dead.
			preGen := rack.Member(victim).Generation()
			degradeAt := time.Now()
			f.Node(victim).SetLinkDegradation(healthRampHops[0])
			drainedAt, err := rack.WaitStage(health.StageDrained, victim, preGen)
			if err != nil {
				return fmt.Errorf("proactive drain never completed after the first ramp level: %w", err)
			}
			res.Table.AddRow("detect", mode, "degrade -> drained (wall)", ns(float64(drainedAt.Sub(degradeAt).Nanoseconds())))
			if fenced, err := rack.Fenced(victim, preGen); !fenced {
				res.Fail("early fence leaked: pre-drain view wrote through while the node was still alive (err=%v)", err)
			} else {
				res.Table.AddRow("fencing", mode, "zombie write while drained node still alive", "fenced")
			}
		}
		for _, hops := range healthRampHops {
			f.Node(victim).SetLinkDegradation(hops)
			if err := runPhase(cfg.TasksPerLevel, degraded); err != nil {
				return err
			}
		}
		if proactive {
			return healthRecover(res, rack, submit)
		}
		if rack.Table.Alive(victim) {
			res.Table.AddRow("detect", mode, "gray victim declared Dead",
				"never (heartbeats keep flowing)")
		} else {
			// A dead verdict on a slow-but-beating node would mean the
			// baseline measured crash recovery, not gray failure.
			res.Fail("baseline declared the gray (alive, heartbeating) victim dead")
		}
		f.Node(victim).SetLinkDegradation(0)
		return nil
	}()
	auditMode(res, rack, mode, err)
	return healthy, degraded
}

// healthRecover clears the ramp and waits for the controller's rejoin
// (the detector's hysteresis flips the verdict back, and the victim
// rejoins under a bumped generation), then runs the crash round: dead
// beats degraded — the controller's death sweep (gate, reclaim,
// post-death fence) and the crash-restart rejoin. After each rejoin the
// victim must serve again.
func healthRecover(res *Result, rack *torture.ControlRack, submit func(linger uint64) sched.Handle) error {
	const victim = healthVictim
	// The rejoin reports the generation its drain fenced.
	drainedGen, _ := rack.Stage(health.StageDrained, victim)
	recoverAt := time.Now()
	rack.Fab.Node(victim).SetLinkDegradation(0)
	rejoinedAt, err := rack.WaitStage(health.StageRejoined, victim, drainedGen)
	if err != nil {
		return fmt.Errorf("proactive rejoin never completed after the ramp cleared: %w", err)
	}
	res.Table.AddRow("recover", "proactive", "ramp clear -> rejoined (wall)", ns(float64(rejoinedAt.Sub(recoverAt).Nanoseconds())))
	if err := healthServes(res, rack, "recover", "rejoined -> victim serving again (wall)", "rejoined victim"); err != nil {
		return err
	}

	c, err := rack.CrashRound(victim, func() []sched.Handle {
		hs := make([]sched.Handle, 0, healthCrashBurst)
		for i := 0; i < healthCrashBurst; i++ {
			hs = append(hs, submit(1)) // lingering tasks: the crash lands mid-task
		}
		return hs
	})
	if err != nil {
		return err
	}
	res.Table.AddRow("crash", "proactive", "crash -> Dead (wall)", ns(float64(c.Detect.Nanoseconds())))
	res.Table.AddRow("crash", "proactive", "crash -> burst complete (wall)", ns(float64(c.Done.Nanoseconds())))
	if c.Leaked {
		res.Fail("post-death fence leaked: dead-generation view wrote through after restart")
	} else {
		res.Table.AddRow("fencing", "proactive", "zombie write after crash+restart", "fenced")
	}
	return healthServes(res, rack, "crash", "restart rejoin -> victim serving again (wall)", "crash-restarted victim")
}

// servesProbeCap bounds healthServes' probe submissions so the DoneCell
// arena stays sized even if the gate never reopens.
const servesProbeCap = 2000

// healthServes proves the victim, who, is pulling rack work again: it
// submits probe tasks preferred there until one actually begins
// executing on it, and reports the wall time that took.
func healthServes(res *Result, rack *torture.ControlRack, phase, metric, who string) error {
	const id = healthVictim
	start := time.Now()
	s0 := rack.Tasks.Started(id)
	for i := 0; i < servesProbeCap; i++ {
		if err := rack.WaitTasks(rack.Tasks.Submit(rack.Fab.Node(0), 0, id)); err != nil {
			return err
		}
		if rack.Tasks.Started(id) > s0 {
			res.Table.AddRow(phase, "proactive", metric, ns(float64(time.Since(start).Nanoseconds())))
			return nil
		}
	}
	res.Fail("%s never served a task again", who)
	return nil
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
