package torture

import (
	"errors"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/redis"
)

// membershipWorkload tortures the coordinated failure-detection layer
// (internal/membership) end to end: every node heartbeats into the
// arena-resident membership table while the schedule driver crashes and
// restarts serving nodes, and ONE membership Dead event — not per-lease
// expiry, not per-client discovery — drives recovery everywhere: the
// scheduler's leases are swept, the redis store is generation-fenced,
// and placement steers off the dead node via the liveness oracle. The
// last node is held OUT of the boot population and hot-plugs into a
// free slot mid-sweep: it joins under load, resyncs against the shared
// store, activates, and serves both subsystems. Restarted nodes rejoin
// their original slot under a bumped generation.
//
// Invariants:
//   - sched exactly-once: every task's DoneCell is incremented exactly
//     once even when the membership sweep re-dispatches tasks whose
//     runner died (the keeper's lease-expiry backstop is deliberately
//     slow, ~20ms, so timely recovery must come from the membership
//     path — a broken path shows up as the stall detector firing and,
//     for leaked completions, as a DoneCell above 1);
//   - redis: reads are never torn and never go backwards, a view fenced
//     at a dead generation never applies another write (zombie writers
//     observe ErrFenced and reattach under the current fence level),
//     and the quiescent store holds exactly each writer's last
//     committed value;
//   - hot-plug: the joining node's resync sees every committed floor
//     intact before it activates, and the quiescent rack converges to
//     every node Alive in the table.
type membershipWorkload struct {
	rack   *ControlRack
	stream *storeStream

	hot   int    // hot-plug node (the last); not in the boot population
	hotAt uint64 // global op count at which the hot node joins
}

const membershipSubmitters = 2

func newMembershipWorkload() *membershipWorkload { return &membershipWorkload{} }

func (w *membershipWorkload) Name() string { return "membership" }

// Tolerates: the control table and every transition travel over fabric
// atomics, and a corrupted heartbeat record just decodes as "no beat"
// (the checksum rejects it, phi absorbs the gap). But the redis entry
// payloads ride the cached write-back path, so silent corruption and
// dropped write-backs are out of contract — exactly redisWorkload's
// envelope.
func (w *membershipWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func (w *membershipWorkload) clients() int { return membershipSubmitters + w.hot + 2 }

func (w *membershipWorkload) Prepare(env *Env) {
	const kpw = 2
	w.hot = env.Cfg.Nodes - 1
	// Hot-plug once the sweep is well under way: a quarter of all ops in,
	// the rack is loaded and the fault windows have opened.
	w.hotAt = uint64(w.clients()) * uint64(env.Cfg.OpsPerClient) / 4
	w.rack = NewControlRack(env.Fab, ControlConfig{
		Store: redis.RackStoreConfig{
			Slots: uint64(env.Cfg.Nodes*kpw) * 8,
			// Crashes and fences abandon views; size for the sweep's churn.
			MaxViews:   4*env.Cfg.Nodes*(env.Cfg.Events+2) + 16,
			ArenaBytes: 16 << 20,
		},
		Tasks:       membershipSubmitters * env.Cfg.OpsPerClient,
		Body:        linger,
		PhiDead:     6,
		DeadStrikes: 2,
		HoldOutLast: true,
		Trace:       env.Trace,
	})
	w.stream = newStoreStream(env, w.rack.Store, kpw)
}

// HandleRestart reboots a restarted node's scheduler workers and rejoins
// it to its original membership slot (the restart-same-slot path: same
// node, same slot, bumped generation).
func (w *membershipWorkload) HandleRestart(env *Env, node int) {
	if err := w.rack.Restarted(node); err != nil {
		env.Violatef(-1, "restart rejoin node %d: %v", node, err)
	}
}

func (w *membershipWorkload) Clients(env *Env) []func() {
	out := make([]func(), 0, w.clients())
	for i := 0; i < membershipSubmitters; i++ {
		ci := 0x70 + i
		out = append(out, func() { submitStorm(env, w.rack.Sched, w.rack.Tasks, ci) })
	}
	for id := 0; id < w.hot; id++ {
		node := id
		out = append(out, func() { w.stream.writer(env, node, 0x800+node) })
	}
	// One reader on node 0, which never crashes.
	out = append(out, func() { w.stream.reader(env, 0, 0x900) })
	out = append(out, func() { w.hotplug(env) })
	return out
}

// hotplug is the tentpole scenario: the held-out last node joins the
// rack mid-sweep, under load and under the fault schedule. It claims a
// slot with a fresh generation, resyncs against the shared store (every
// committed floor must be readable and intact BEFORE it serves),
// activates, lifts its scheduler serving gate, and then runs the same
// single-writer stream every boot member runs. A crash mid-join is
// retried once the node is back; the retry rejoins with a bumped gen.
func (w *membershipWorkload) hotplug(env *Env) {
	n := env.Fab.Node(w.hot)
	ci := 0xA00
	for env.Ops() < w.hotAt {
		time.Sleep(200 * time.Microsecond)
	}
	for {
		WaitAlive(n)
		err := w.rack.Join(w.hot, func() { w.stream.resync(env, n, ci) })
		if err == nil {
			break
		}
		if !errors.As(err, new(fabric.CrashedError)) {
			env.Violatef(ci, "hot-plug join: %v", err)
			return
		}
	}
	w.rack.Sched.SetNodeServing(w.hot, true)
	w.stream.writer(env, w.hot, 0x800+w.hot)
}

func (w *membershipWorkload) Check(env *Env) {
	defer w.rack.Stop()
	auditTasks(env, w.rack.Tasks)
	w.stream.check(env)
	for _, v := range w.rack.Converge() {
		env.Violatef(-1, "%s", v)
	}
}
