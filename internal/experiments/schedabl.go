package experiments

import (
	"fmt"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/sched"
)

// SchedConfig parameterizes ablation G (coordinated scheduling).
type SchedConfig struct {
	// Tasks is the placement-phase task count; each task owns
	// schedRegionLines cache lines of working set, warm on its home node.
	Tasks int
	// CrashTasks is the crash-phase task count (all routed at the node
	// that dies).
	CrashTasks int
}

// DefaultSched has enough tasks per worker that the p99 reflects
// steady-state queueing rather than startup.
func DefaultSched() SchedConfig { return SchedConfig{Tasks: 200, CrashTasks: 48} }

// QuickSched is the CI-sized run.
func QuickSched() SchedConfig { return SchedConfig{Tasks: 120, CrashTasks: 24} }

// The placement phase's rack: enough nodes that random placement lands
// three quarters of the work cache-cold.
const (
	schedNodes          = 4
	schedWorkersPerNode = 2
	schedRegionLines    = 512
	// schedCrashTaskNS is each crash-phase task's modeled service time.
	schedCrashTaskNS = 200_000
	schedSeed        = 1
)

// sleepScale stretches each task's modeled (virtual-ns) memory cost into
// real sleep time so queueing dynamics reflect the cost model without
// CPU contention — spinning would serialize on small hosts and drown the
// signal in scheduler noise.
const sleepScale = 4

// SchedAblation measures the coordinated scheduler's two claims.
//
// Phase A (placement): every task owns a working set pre-warmed into its
// home node's cache. Locality-aware placement runs the task where its
// pages are hot (LocalNS per access); random placement mostly lands it
// cache-cold (GlobalNS + hops per access). Each task sleeps for its own
// accrued virtual cost, so wall-clock dispatch latency reflects the
// modeled costs: slower service backs up the run queues, and random
// placement pays on dispatch p99, not just on service time — the
// paper's argument that placement must see memory locality once memory
// is rack-wide.
//
// Phase B (failure): every task targets one node, that node crashes
// mid-run, and the survivors' lease keepers reclaim the in-flight tasks.
// The phase reports completion (must be total) and re-dispatch latency —
// the crash-to-restart cost of §3's failure-isolation design.
func SchedAblation(cfg SchedConfig) *Result {
	res := newResult("Ablation G: coordinated scheduling — locality placement and crash re-dispatch",
		"phase", "policy", "tasks", "throughput", "p50 dispatch", "p99 dispatch")

	// ---- Phase A: locality-aware vs random placement ----
	runPlacement := func(policy sched.Policy) (p50, p99, thr float64) {
		f := fabric.New(fabric.Config{
			GlobalSize: 256 << 20, Nodes: schedNodes,
			CacheCapacityLines: -1, Latency: fabric.DefaultLatency(),
		})
		s := sched.New(f, sched.Config{
			Policy: policy, WorkersPerNode: schedWorkersPerNode,
			// Let a queued task wait a beat for its warm node before it
			// can be stolen cold: long enough to matter, short enough
			// that a busy node's backlog still gets rescued.
			StealGrace: 500 * time.Microsecond,
			// No node dies in this phase; a lazy lease clock keeps keeper
			// scheduling jitter from triggering false reclaims that would
			// re-run (and re-time) tasks.
			ReclaimTick: 50 * time.Millisecond,
			Seed:        schedSeed,
		})
		defer s.Stop()

		// Per-task working sets, warmed into the home node's cache.
		lines := uint64(schedRegionLines)
		region := f.Reserve(uint64(cfg.Tasks)*lines*fabric.LineSize, fabric.LineSize)
		for j := 0; j < cfg.Tasks; j++ {
			home := f.Node(j % schedNodes)
			base := region.Add(uint64(j) * lines * fabric.LineSize)
			for l := uint64(0); l < lines; l++ {
				home.Load64(base.Add(l * fabric.LineSize))
			}
		}
		fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
			base := fabric.GPtr(arg0)
			v0 := n.VirtualNS()
			for l := uint64(0); l < arg1; l++ {
				n.Load64(base.Add(l * fabric.LineSize)) // hit at home, miss elsewhere
			}
			time.Sleep(time.Duration(sleepScale*(n.VirtualNS()-v0)) * time.Nanosecond)
		})
		s.Start()

		// Warm-up round: make sure every node's workers are actually
		// scheduled and the spin calibration has run before the clock
		// starts, then discard the warm-up's latency samples.
		n0 := f.Node(0)
		for j := 0; j < schedNodes*schedWorkersPerNode; j++ {
			s.Submit(n0, sched.Task{Fn: fn, Arg0: uint64(region), Arg1: 1, Preferred: j % schedNodes})
		}
		if !s.Drain(n0) {
			panic("sched experiment: warm-up drain aborted")
		}
		s.DispatchHist().Reset()

		start := time.Now()
		for j := 0; j < cfg.Tasks; j++ {
			pref := j % schedNodes
			if policy == sched.PolicyRandom {
				pref = -1 // the baseline is blind to locality
			}
			s.Submit(n0, sched.Task{
				Fn:   fn,
				Arg0: uint64(region.Add(uint64(j) * lines * fabric.LineSize)),
				Arg1: lines, Preferred: pref,
			})
		}
		if !s.Drain(n0) {
			panic("sched experiment: placement drain aborted")
		}
		el := time.Since(start).Seconds()
		h := s.DispatchHist()
		return h.Percentile(50), h.Percentile(99), float64(cfg.Tasks) / el
	}

	locP50, locP99, locThr := runPlacement(sched.PolicyLocality)
	rndP50, rndP99, rndThr := runPlacement(sched.PolicyRandom)
	res.Table.AddRow("placement", "locality-aware", fmt.Sprintf("%d", cfg.Tasks),
		fmt.Sprintf("%.0f/s", locThr), ns(locP50), ns(locP99))
	res.Table.AddRow("placement", "random", fmt.Sprintf("%d", cfg.Tasks),
		fmt.Sprintf("%.0f/s", rndThr), ns(rndP50), ns(rndP99))
	res.Ratios["random/locality dispatch p99"] = rndP99 / locP99
	res.Ratios["locality/random throughput"] = locThr / rndThr

	// ---- Phase B: node crash and failure-aware re-dispatch ----
	f := fabric.New(fabric.Config{
		GlobalSize: 64 << 20, Nodes: 2,
		CacheCapacityLines: -1, Latency: fabric.DefaultLatency(),
	})
	s := sched.New(f, sched.Config{
		Policy: sched.PolicyLocality, LocalitySlack: 1 << 40,
		ProbeRounds: 3, ReclaimTick: 100 * time.Microsecond,
		IdleTick: 100 * time.Microsecond, Seed: schedSeed,
	})
	defer s.Stop()
	taskNS := time.Duration(schedCrashTaskNS) * time.Nanosecond
	started := f.Reserve(8*2, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(started).Add(uint64(n.ID())*8), 1)
		time.Sleep(taskNS)
		n.Load64(fabric.GPtr(started)) // a dead CPU dies on this touch
	})
	s.Start()
	n0 := f.Node(0)
	for j := 0; j < cfg.CrashTasks; j++ {
		s.Submit(n0, sched.Task{Fn: fn, Preferred: 1})
	}
	for n0.AtomicLoad64(started.Add(8)) == 0 {
		time.Sleep(20 * time.Microsecond)
	}
	f.Node(1).Crash()
	if !s.Drain(n0) {
		panic("sched experiment: crash drain aborted")
	}
	st := s.StatsFrom(n0)
	rh := s.RedispatchHist()
	res.Table.AddRow("crash", "failure-aware", fmt.Sprintf("%d/%d done", st.Completed, cfg.CrashTasks),
		fmt.Sprintf("%d reclaimed", st.Reclaimed), ns(rh.Percentile(50)), ns(rh.Percentile(99)))
	res.Ratios["tasks surviving node crash"] = float64(st.Completed) / float64(cfg.CrashTasks)
	return res
}
