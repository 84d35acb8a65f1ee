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

	mem := newMemRack(cfg, true)
	if hotNS, ok := mem.hotPlug(cfg); ok {
		res.Table.AddRow("hot-plug", "membership", "join -> serving under load (wall)", ns(hotNS))
	} else {
		res.Fail("hot-plug resync read missing/corrupt committed state")
	}

	detect := metrics.NewHistogram()
	sweep := metrics.NewHistogram()
	complete := metrics.NewHistogram()
	leaks := 0
	memStart := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		victim := 1 + r%(memNodes-1)
		d, s, c, leak, ok := mem.crashRound(cfg, victim)
		if !ok {
			res.Fail("membership round %d (victim %d): detection/recovery timed out", r, victim)
			continue
		}
		detect.Record(float64(d.Nanoseconds()))
		sweep.Record(float64(s.Nanoseconds()))
		complete.Record(float64(c.Nanoseconds()))
		if leak {
			leaks++
		}
	}
	memElapsed := time.Since(memStart)
	auditExactlyOnce(res, mem.rack, "membership")
	mem.rack.Stop()

	base := newMemRack(cfg, false)
	baseDetect := metrics.NewHistogram()
	baseComplete := metrics.NewHistogram()
	for r := 0; r < cfg.Rounds; r++ {
		victim := 1 + r%(memNodes-1)
		d, c, ok := base.baselineRound(cfg, victim)
		if !ok {
			res.Fail("baseline round %d (victim %d): lease reclaim timed out", r, victim)
			continue
		}
		baseDetect.Record(float64(d.Nanoseconds()))
		baseComplete.Record(float64(c.Nanoseconds()))
	}
	auditExactlyOnce(res, base.rack, "lease-expiry baseline")
	base.rack.Stop()

	for _, row := range []struct {
		phase, mode, metric string
		h                   *metrics.Histogram
	}{
		{"detect", "membership", "crash -> Dead (wall) p50/p99", detect},
		{"detect", "lease-expiry baseline", "crash -> first reclaim (wall) p50/p99", baseDetect},
		{"recover", "membership", "crash -> sweep done (wall) p50/p99", sweep},
		{"recover", "membership", "crash -> burst complete (wall) p50/p99", complete},
		{"recover", "lease-expiry baseline", "crash -> burst complete (wall) p50/p99", baseComplete},
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

	recoverRatio := ratio(baseComplete.Mean(), complete.Mean())
	res.Ratios["baseline/membership detection"] = ratio(baseDetect.Mean(), detect.Mean())
	res.Ratios["baseline/membership recovery"] = recoverRatio
	if recoverRatio < memRecoveryGate {
		res.Fail("membership recovery %.2fx the baseline, want >= %.1fx", recoverRatio, memRecoveryGate)
	}

	ds := detect.Summarize()
	res.Bench = &Bench{
		Name:      "membership",
		OpsPerSec: ratio(float64(cfg.Rounds*cfg.TasksPerRound), memElapsed.Seconds()),
		P50NS:     ds.P50,
		P99NS:     ds.P99,
	}
	return res
}

// auditExactlyOnce audits a mode's entire task history after all its
// rounds: the scheduler ledger balances and every task completed exactly
// once despite crashes mid-task, drains and reclaim re-dispatch.
func auditExactlyOnce(res *Result, rack *torture.ControlRack, mode string) {
	a := rack.Tasks.Audit(rack.Fab.Node(0))
	res.Table.AddRow("invariant", mode, "tasks exactly-once", a.String())
	if !a.OK() {
		res.Fail("%s mode broke exactly-once completion: %s", mode, a.Violations[0])
	}
}

// memWaitTimeout bounds every detection/recovery poll: crossing it means
// the path under test is broken, not slow.
const memWaitTimeout = 10 * time.Second

// waitFor polls cond until it holds or memWaitTimeout passes.
func waitFor(every time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(memWaitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(every)
	}
	return true
}

// memRack is one mode's control rack plus the experiment's probes.
type memRack struct {
	rack      *torture.ControlRack
	started   []atomic.Uint64 // per node: tasks that began executing there
	recovered chan time.Time  // wall time each Dead sweep finished
}

func newMemRack(cfg MembershipConfig, withMembership bool) *memRack {
	r := &memRack{
		started: make([]atomic.Uint64, memNodes),
		// Rounds drain the channel before every crash, so it only ever
		// holds one round's sweeps; 64 leaves room for false Dead verdicts.
		recovered: make(chan time.Time, 64),
	}
	ccfg := torture.ControlConfig{
		Store: redis.RackStoreConfig{ArenaBytes: 8 << 20, MaxViews: 8*cfg.Rounds + 32},
		Tasks: cfg.Rounds*cfg.TasksPerRound + cfg.TasksPerRound + 64,
		Body: func(n *fabric.Node, _ uint64) {
			// Announce the start (rounds crash a node only once it is
			// observably mid-task), then linger off-fabric long enough
			// for the crash to land.
			r.started[n.ID()].Add(1)
			time.Sleep(200 * time.Microsecond)
		},
		HoldOutLast: true,
	}
	if withMembership {
		ccfg.PhiDead, ccfg.DeadStrikes = 6, 2
		// StageDead fires once the controller's Dead sweep completed.
		ccfg.OnStage = func(st health.Stage, _ int, _ uint64) {
			if st != health.StageDead {
				return
			}
			select {
			case r.recovered <- time.Now():
			default:
			}
		}
	}
	r.rack = torture.NewControlRack(fabric.New(fabric.Config{GlobalSize: 128 << 20, Nodes: memNodes}), ccfg)
	if err := r.rack.Store.Attach(r.rack.Fab.Node(0)).Set("warm", []byte("committed"), 0); err != nil {
		panic(err)
	}
	return r
}

// burst submits count background tasks from node 0, preferred round-
// robin across nodes [0, nodes) (the victim included).
func (r *memRack) burst(count, nodes int) []sched.Handle {
	n0 := r.rack.Fab.Node(0)
	hs := make([]sched.Handle, 0, count)
	for i := 0; i < count; i++ {
		hs = append(hs, r.rack.Tasks.Submit(n0, 0, i%nodes))
	}
	return hs
}

func (r *memRack) waitHandles(hs []sched.Handle) {
	n0 := r.rack.Fab.Node(0)
	for _, h := range hs {
		r.rack.Sched.Wait(n0, h)
	}
}

// hotPlug joins the held-out last node under background load and
// returns the wall time from Join to its first served task.
func (r *memRack) hotPlug(cfg MembershipConfig) (float64, bool) {
	const hot = memNodes - 1
	bg := r.burst(cfg.TasksPerRound, hot) // load on the existing population
	start := time.Now()
	synced := false
	err := r.rack.Join(hot, func() {
		// Resync while Joining: the shared store must serve committed
		// state to the joiner before it activates.
		v, ok := r.rack.Store.Attach(r.rack.Fab.Node(hot)).Get("warm")
		synced = ok && string(v) == "committed"
	})
	if err != nil {
		panic(err)
	}
	if !synced {
		return 0, false
	}
	r.rack.Sched.SetNodeServing(hot, true)
	// A burst preferred ONLY at the joiner closes the measurement: its
	// completion proves the new node is claiming and serving work.
	n0 := r.rack.Fab.Node(0)
	probe := make([]sched.Handle, 0, 4)
	for i := 0; i < 4; i++ {
		probe = append(probe, r.rack.Tasks.Submit(n0, 0, hot))
	}
	r.waitHandles(probe)
	elapsed := float64(time.Since(start).Nanoseconds())
	r.waitHandles(bg)
	return elapsed, true
}

// crashMidTask submits a burst across every node and crashes victim only
// once it is observably mid-task, so it holds a lease the recovery path
// under test must reclaim.
func (r *memRack) crashMidTask(cfg MembershipConfig, victim int) (hs []sched.Handle, crashAt time.Time, ok bool) {
	s0 := r.started[victim].Load()
	hs = r.burst(cfg.TasksPerRound, memNodes)
	if !waitFor(10*time.Microsecond, func() bool { return r.started[victim].Load() != s0 }) {
		return nil, time.Time{}, false
	}
	crashAt = time.Now()
	r.rack.Fab.Node(victim).Crash()
	return hs, crashAt, true
}

// crashRound runs one membership-mode cycle against victim and returns
// (crash->Dead, crash->sweep, crash->burst complete, zombieLeak, ok).
func (r *memRack) crashRound(cfg MembershipConfig, victim int) (detect, sweep, complete time.Duration, leak, ok bool) {
	tb := r.rack.Table
	// The previous round's victim may still be converging back to Alive;
	// crashing a node the detector already counts dead would measure
	// nothing.
	if !waitFor(50*time.Microsecond, func() bool { return tb.Alive(victim) }) {
		return 0, 0, 0, false, false
	}
	for len(r.recovered) > 0 { // stale recovery stamps from earlier rounds
		<-r.recovered
	}
	gen := r.rack.Member(victim).Generation()

	hs, crashAt, ok := r.crashMidTask(cfg, victim)
	if !ok || !waitFor(20*time.Microsecond, func() bool { return !tb.Alive(victim) }) {
		return 0, 0, 0, false, false
	}
	detect = time.Since(crashAt)
	select {
	case ts := <-r.recovered:
		sweep = ts.Sub(crashAt)
	case <-time.After(memWaitTimeout):
		return 0, 0, 0, false, false
	}
	r.waitHandles(hs)
	complete = time.Since(crashAt)

	// Hot-plug the victim back: restart the fabric node, respawn its
	// runners, rejoin with a bumped generation — then probe the fence. A
	// view carrying the dead generation must stay write-dead forever,
	// even though the node underneath it is back.
	r.rack.Fab.Node(victim).Restart()
	if err := r.rack.Restarted(victim); err != nil {
		panic(err)
	}
	zombie := r.rack.Store.AttachGen(r.rack.Fab.Node(victim), gen)
	leak = !errors.Is(zombie.Set("warm", []byte("necro"), 0), redis.ErrFenced)
	return detect, sweep, complete, leak, true
}

// baselineRound is the per-subsystem path: no membership layer, so
// "detection" is sched's lease-expiry keeper noticing on its own
// (ProbeRounds x ReclaimTick later), and the store is never fenced.
func (r *memRack) baselineRound(cfg MembershipConfig, victim int) (detect, complete time.Duration, ok bool) {
	n0 := r.rack.Fab.Node(0)
	s := r.rack.Sched
	before := s.StatsFrom(n0).Reclaimed
	hs, crashAt, ok := r.crashMidTask(cfg, victim)
	if !ok || !waitFor(50*time.Microsecond, func() bool { return s.StatsFrom(n0).Reclaimed != before }) {
		return 0, 0, false
	}
	detect = time.Since(crashAt)
	r.waitHandles(hs)
	complete = time.Since(crashAt)

	r.rack.Fab.Node(victim).Restart()
	if err := r.rack.Restarted(victim); err != nil {
		panic(err)
	}
	return detect, complete, true
}
