package torture

import (
	"time"

	"flacos/internal/fabric"
	"flacos/internal/sched"
)

// schedWorkload storms the rack-wide scheduler with tasks preferred onto
// every node — including crash victims — while the fault driver kills and
// restarts nodes under it.
//
// Invariants:
//   - exactly-once completion: each task's DoneCell is incremented by the
//     scheduler exactly once, even when a lease reclaim re-dispatches a
//     task whose first runner died mid-flight (the attempt bump must fence
//     the stale runner's completion CAS);
//   - no lost tasks: Completed == Submitted and Queued == 0 after Drain;
//   - at-least-once execution: every task's side-effect counter is >= 1.
//
// Submitters live on node 0, which the schedule never crashes, so the
// submission history itself is reliable ground truth. This workload
// tolerates every fault class: all scheduler control words are fabric
// atomics, and the cached announcement-ring payload is only a hint.
type schedWorkload struct {
	s     *sched.Scheduler
	tasks *Ledger
}

const schedSubmitters = 2

func newSchedWorkload() *schedWorkload { return &schedWorkload{} }

func (w *schedWorkload) Name() string { return "sched" }

func (w *schedWorkload) Tolerates() FaultClass { return FaultAll }

func (w *schedWorkload) Prepare(env *Env) {
	w.s = sched.New(env.Fab, sched.Config{
		TableCap:    128,
		Policy:      sched.PolicyLocality,
		ProbeRounds: 3,
		ReclaimTick: 200 * time.Microsecond,
		IdleTick:    200 * time.Microsecond,
		StealGrace:  500 * time.Microsecond,
		HistCap:     1024,
	})
	w.s.SetTrace(env.Trace)
	w.tasks = NewLedger(env.Fab, w.s, schedSubmitters*env.Cfg.OpsPerClient, linger)
	w.s.Start()
}

// linger is the torture task body: stay off-fabric long enough for a
// crash to land mid-task.
func linger(*fabric.Node, uint64) { time.Sleep(20 * time.Microsecond) }

// HandleRestart rejoins a restarted node's worker pool and keeper under
// its original node ID.
func (w *schedWorkload) HandleRestart(env *Env, node int) {
	w.s.RebootNode(node)
}

func (w *schedWorkload) Clients(env *Env) []func() {
	out := make([]func(), schedSubmitters)
	for i := range out {
		ci := 0x30 + i
		out[i] = func() { submitStorm(env, w.s, w.tasks, ci) }
	}
	return out
}

// submitStorm is one submitter client: OpsPerClient audited tasks from
// node 0, preferred onto every node — crash victims, draining, joining,
// the lot — then a wait for all of them. Placement and whatever recovery
// layer the workload runs must between them still deliver exactly-once.
func submitStorm(env *Env, s *sched.Scheduler, tasks *Ledger, ci int) {
	n0 := env.Fab.Node(0)
	rng := env.Rand(uint64(ci))
	handles := make([]sched.Handle, 0, env.Cfg.OpsPerClient)
	for t := 0; t < env.Cfg.OpsPerClient; t++ {
		handles = append(handles, tasks.Submit(n0, 0, rng.Intn(env.Fab.NumNodes())))
		env.OpDone()
	}
	for _, h := range handles {
		s.Wait(n0, h)
	}
}

func (w *schedWorkload) Check(env *Env) { auditTasks(env, w.tasks) }

func (w *schedWorkload) Stop() { w.s.Stop() }

// auditTasks folds the ledger's exactly-once audit into the sweep's
// violations.
func auditTasks(env *Env, tasks *Ledger) {
	for _, v := range tasks.Audit(env.Fab.Node(0)).Violations {
		env.Violatef(-1, "%s", v)
	}
}
