package experiments

import (
	"fmt"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/metrics"
	"flacos/internal/redis"
	"flacos/internal/sched"
	"flacos/internal/torture"
)

// MembershipConfig parameterizes the coordinated failure-detection
// experiment.
type MembershipConfig struct {
	// Rounds is how many crash -> detect -> recover cycles each mode
	// runs (victims cycle over nodes 1..memNodes-1; node 0 never dies).
	Rounds int
	// TasksPerRound is the background scheduler burst submitted right
	// before each crash, preferred across every node including the
	// victim — the work whose recovery is being timed.
	TasksPerRound int
}

// DefaultMembership is the acceptance setup: eight crash cycles per mode.
func DefaultMembership() MembershipConfig { return MembershipConfig{Rounds: 8, TasksPerRound: 96} }

// QuickMembership is the CI-sized run.
func QuickMembership() MembershipConfig { return MembershipConfig{Rounds: 3, TasksPerRound: 40} }

// memNodes sizes the rack. The last node is held out of the boot
// population and hot-plugs into a free slot under load.
const memNodes = 4

// memRecoveryGate is how far membership recovery must beat the
// lease-expiry baseline.
const memRecoveryGate = 1.2

// Membership measures the coordinated failure-detection layer
// (internal/membership) against the old per-subsystem recovery paths.
//
// Latencies here are WALL nanoseconds, not virtual: both the membership
// detector and sched's lease keeper are ticker-driven, so wall time is
// the honest clock for them (virtual time does not advance while a
// failure sits undetected).
//
//   - Membership mode: heartbeats + phi detection; ONE Dead event runs
//     the self-healing controller's death sweep, which gates the dead
//     node out of scheduling until it rejoins, sweeps its leases and
//     generation-fences its store views. Measured: crash->Dead detection, crash->sweep completion,
//     and crash->burst completion; plus the hot-plug join->serving
//     time for the held-out node, and a zombie-write probe after every
//     restart (a pre-death view must observe ErrFenced forever).
//   - Baseline mode: no membership layer. The same burst's recovery
//     waits on sched's conservative lease-expiry keeper (20ms), the old
//     per-subsystem path; the store has no fencing at all in this mode.
//
// It fails on a zombie write leaking through a fence, a detection or
// recovery timeout, a task not completed exactly once, or membership
// recovery not beating the lease-expiry baseline by memRecoveryGate.
func Membership(cfg MembershipConfig) *Result {
	res := newResult("Membership: coordinated failure detection vs per-subsystem recovery",
		"phase", "mode", "metric", "value")

	// Per mode, membership then the baseline: crash -> detection, -> sweep
	// done (membership only) and -> burst complete.
	var detect, sweep, complete [2]*metrics.Histogram
	leaks := 0
	var memElapsed time.Duration
	for m, mode := range []string{"membership", "lease-expiry baseline"} {
		detect[m], sweep[m], complete[m] = metrics.NewHistogram(), metrics.NewHistogram(), metrics.NewHistogram()
		rack := membershipRack(cfg, m == 0)
		err := func() error {
			if m == 0 {
				if err := memHotPlug(res, rack, cfg); err != nil {
					return err
				}
			}
			start := time.Now()
			for r := 0; r < cfg.Rounds; r++ {
				victim := 1 + r%(memNodes-1)
				c, err := rack.CrashRound(victim, func() []sched.Handle { return memBurst(rack, cfg.TasksPerRound, memNodes) })
				if err != nil {
					return fmt.Errorf("round %d (victim %d): %w", r, victim, err)
				}
				detect[m].Record(float64(c.Detect.Nanoseconds()))
				sweep[m].Record(float64(c.Sweep.Nanoseconds()))
				complete[m].Record(float64(c.Done.Nanoseconds()))
				if c.Leaked {
					leaks++
				}
			}
			if m == 0 {
				memElapsed = time.Since(start)
			}
			return nil
		}()
		auditMode(res, rack, mode, err)
	}

	for _, row := range []struct {
		phase, mode, metric string
		h                   *metrics.Histogram
	}{
		{"detect", "membership", "crash -> Dead (wall) p50/p99", detect[0]},
		{"detect", "lease-expiry baseline", "crash -> first reclaim (wall) p50/p99", detect[1]},
		{"recover", "membership", "crash -> sweep done (wall) p50/p99", sweep[0]},
		{"recover", "membership", "crash -> burst complete (wall) p50/p99", complete[0]},
		{"recover", "lease-expiry baseline", "crash -> burst complete (wall) p50/p99", complete[1]},
	} {
		s := row.h.Summarize()
		res.Table.AddRow(row.phase, row.mode, row.metric,
			fmt.Sprintf("%s / %s", ns(s.P50), ns(s.P99)))
	}
	res.Table.AddRow("fencing", "membership", "zombie write leaks",
		fmt.Sprintf("%d / %d rounds", leaks, cfg.Rounds))
	if leaks > 0 {
		res.Fail("%d zombie write(s) leaked through a generation fence", leaks)
	}

	recoverRatio := ratio(complete[1].Mean(), complete[0].Mean())
	res.Ratios["baseline/membership detection"] = ratio(detect[1].Mean(), detect[0].Mean())
	res.Ratios["baseline/membership recovery"] = recoverRatio
	if recoverRatio < memRecoveryGate {
		res.Fail("membership recovery %.2fx the baseline, want >= %.1fx", recoverRatio, memRecoveryGate)
	}

	ds := detect[0].Summarize()
	res.Bench = &Bench{
		Name:      "membership",
		OpsPerSec: ratio(float64(cfg.Rounds*cfg.TasksPerRound), memElapsed.Seconds()),
		P50NS:     ds.P50,
		P99NS:     ds.P99,
	}
	return res
}

// auditMode ends a mode: a kit wait that ran out (err) fails the run with
// its open waits; otherwise the mode's entire task history is audited —
// the scheduler ledger balances and every task completed exactly once
// despite crashes mid-task, drains and reclaim re-dispatch. Either way
// the rack stops.
func auditMode(res *Result, rack *torture.ControlRack, mode string, err error) {
	defer rack.Stop()
	if err != nil {
		res.Fail("%s mode: %v", mode, err)
		return
	}
	a := rack.Tasks.Audit(rack.Fab.Node(0))
	res.Table.AddRow("invariant", mode, "tasks exactly-once", a.String())
	if !a.OK() {
		res.Fail("%s mode broke exactly-once completion: %s", mode, a.Violations[0])
	}
}

// membershipRack builds one mode's control rack. Its tasks linger
// off-fabric once begun, long enough for a crash to land mid-task.
func membershipRack(cfg MembershipConfig, withMembership bool) *torture.ControlRack {
	ccfg := torture.ControlConfig{
		Store:       redis.RackStoreConfig{ArenaBytes: 8 << 20, MaxViews: 8*cfg.Rounds + 32},
		Tasks:       cfg.Rounds*cfg.TasksPerRound + cfg.TasksPerRound + 64,
		Body:        func(*fabric.Node, uint64) { time.Sleep(200 * time.Microsecond) },
		HoldOutLast: true,
	}
	if withMembership {
		ccfg.PhiDead, ccfg.DeadStrikes = 6, 2
	}
	rack := torture.NewControlRack(fabric.New(fabric.Config{GlobalSize: 128 << 20, Nodes: memNodes}), ccfg)
	if err := rack.Store.Attach(rack.Fab.Node(0)).Set("warm", []byte("committed"), 0); err != nil {
		panic(err)
	}
	return rack
}

// memBurst submits count background tasks from node 0, preferred round-
// robin across nodes [0, nodes) (the victim included).
func memBurst(rack *torture.ControlRack, count, nodes int) []sched.Handle {
	n0 := rack.Fab.Node(0)
	hs := make([]sched.Handle, 0, count)
	for i := 0; i < count; i++ {
		hs = append(hs, rack.Tasks.Submit(n0, 0, i%nodes))
	}
	return hs
}

// memHotPlug joins the held-out last node under background load and
// reports the wall time from Join to its first served task.
func memHotPlug(res *Result, rack *torture.ControlRack, cfg MembershipConfig) error {
	const hot = memNodes - 1
	bg := memBurst(rack, cfg.TasksPerRound, hot) // load on the existing population
	start := time.Now()
	synced := false
	err := rack.Join(hot, func() {
		// Resync while Joining: the shared store must serve committed
		// state to the joiner before it activates.
		v, ok := rack.Store.Attach(rack.Fab.Node(hot)).Get("warm")
		synced = ok && string(v) == "committed"
	})
	if err != nil {
		panic(err)
	}
	if !synced {
		res.Fail("hot-plug resync read missing/corrupt committed state")
		return nil
	}
	rack.Sched.SetNodeServing(hot, true)
	// A burst preferred ONLY at the joiner closes the measurement: its
	// completion proves the new node is claiming and serving work.
	probe := make([]sched.Handle, 4)
	for i := range probe {
		probe[i] = rack.Tasks.Submit(rack.Fab.Node(0), 0, hot)
	}
	if err := rack.WaitTasks(probe...); err != nil {
		return err
	}
	res.Table.AddRow("hot-plug", "membership", "join -> serving under load (wall)", ns(float64(time.Since(start).Nanoseconds())))
	return rack.WaitTasks(bg...)
}
