package torture

import (
	"errors"
	"fmt"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/reliability"
	"flacos/internal/health"
	"flacos/internal/redis"
)

// healthWorkload tortures the gray-failure layer (internal/health) end
// to end: every node publishes health signals and runs the anomaly
// detector, a self-healing controller on node 0 consumes the unified
// membership+health event stream, and TWO independent gray-failure
// generators feed the detector while the schedule driver crashes and
// restarts nodes underneath it:
//
//   - the schedule's degrade windows add link hops to a victim at
//     runtime (the detector's direct LinkHops signal, plus genuine
//     latency drift on every op the victim performs);
//   - a "graygen" client plants seeded, scrub-detectable bit flips in
//     per-node sentinel regions, and each scrub pass that repairs one
//     charges the owning node's error EWMA through the health layer's
//     attribution feed (NodeSource.AddErrors).
//
// Each Degraded verdict runs the proactive drain — gate, evict, fence
// EARLY, re-place — against a live, loaded rack; each Recovered verdict
// rejoins the node under a bumped generation; a crash mid-anything lets
// EvDead win the race and the death sweep owns remediation.
//
// Invariants:
//   - sched exactly-once: every task's DoneCell is incremented exactly
//     once even while drains bench nodes mid-sweep and death sweeps
//     re-dispatch leases;
//   - zero fenced-zombie writes: after every completed drain a probe
//     view attached at the DRAINED generation must bounce with
//     ErrFenced — before the node is dead, not after. The planted
//     "drain-fence" break (skip the early fence) must make exactly this
//     checker fire;
//   - redis: reads are never torn and never go backwards, and the
//     quiescent store holds exactly each writer's last committed value;
//   - convergence: the quiescent rack returns to every node Alive with
//     no Degraded verdict standing.
type healthWorkload struct {
	env    *Env
	rack   *ControlRack
	stream *storeStream
	scrub  *reliability.Scrubber
	sentG  fabric.GPtr
}

const healthSubmitters = 2

// graygenBurst is how many consecutive flips the graygen client plants
// on one victim before cooling down — long enough to push the error
// EWMA over the Degraded threshold, short enough that the victim
// recovers and the drain/rejoin cycle runs repeatedly per sweep.
const graygenBurst = 8

func newHealthWorkload() *healthWorkload { return &healthWorkload{} }

func (w *healthWorkload) Name() string { return "health" }

// Tolerates: crashes and link degradation are the point. The redis
// entry payloads and the health records ride the cached write-back
// path, so silent corruption and dropped write-backs are out of
// contract (a corrupted health record is merely rejected by its
// checksum, but the store payloads cannot survive it) — the graygen
// client plants its own, attributable corruption instead.
func (w *healthWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func (w *healthWorkload) Prepare(env *Env) {
	const kpw = 2
	f := env.Fab
	w.env = env
	nodes := env.Cfg.Nodes
	// The controller rides node 0's event stream (node 0 never crashes,
	// and its health agent evaluates every slot, so one stream carries
	// the whole rack's verdicts). It owns the death sweep too — the
	// classic EvDead hook lives inside the same pipeline here.
	w.rack = NewControlRack(f, ControlConfig{
		Store: redis.RackStoreConfig{
			// Extra slot headroom for the zombie-probe keys a broken fence
			// path would actually write.
			Slots: uint64(nodes*kpw+nodes) * 8,
			// Fences (proactive drains AND death sweeps) abandon views, and
			// every completed drain attaches one probe view; size for churn.
			MaxViews:   4*nodes*(env.Cfg.Events+2) + 3*env.Cfg.OpsPerClient + 64,
			ArenaBytes: 16 << 20,
		},
		Tasks:       healthSubmitters * env.Cfg.OpsPerClient,
		Body:        linger,
		PhiDead:     6,
		DeadStrikes: 2,
		Health:      true,
		OnStage:     w.onStage,
		Trace:       env.Trace,
	})
	w.stream = newStoreStream(env, w.rack.Store, kpw)

	// Per-node sentinel lines the graygen client corrupts and the
	// scrubber guards: the scrub->attribute->repair loop is how at-rest
	// corruption becomes a node-charged error signal.
	w.scrub = reliability.NewScrubber(f)
	w.sentG = f.Reserve(uint64(nodes)*fabric.LineSize, fabric.LineSize)
	for id := 0; id < nodes; id++ {
		r := w.sentRegion(id)
		f.WriteAtHome(r.G, w.sentPattern(id))
		w.scrub.Protect(r)
	}
}

func (w *healthWorkload) sentRegion(id int) reliability.Region {
	return reliability.Region{G: w.sentG.Add(uint64(id) * fabric.LineSize), Size: fabric.LineSize}
}

func (w *healthWorkload) sentPattern(id int) []byte {
	b := make([]byte, fabric.LineSize)
	for i := range b {
		b[i] = byte(id*37 + i*11 + 5)
	}
	return b
}

// onStage is the fenced-zombie-write checker: the moment a drain
// completes, a view attached at the DRAINED generation must already be
// unable to write — the early fence ran BEFORE the node died, which is
// the whole point of proactive draining. The planted "drain-fence"
// break skips that fence, and this probe is what must catch it.
func (w *healthWorkload) onStage(st health.Stage, node int, gen uint64) {
	if st != health.StageDrained {
		return
	}
	env := w.env
	n := env.Fab.Node(node)
	store := w.rack.Store
	var err error
	if !RunOp(n, func() {
		pv := store.AttachGen(n, gen)
		err = pv.Set(fmt.Sprintf("zk-%d", node), []byte("zombie"), 0)
		// Release the probe's quiescence reservation; the view is never
		// used again. (Through node 0: the schedule never crashes it, so
		// RunOp has only n's crash to absorb.)
		store.FenceView(env.Fab.Node(0), pv.ID())
	}) {
		return // node died mid-probe; the death sweep owns it now
	}
	if err == nil {
		env.Violatef(-1, "fenced-zombie write applied: node %d gen %d accepted a SET after its drain's fence stage", node, gen)
	} else if !errors.Is(err, redis.ErrFenced) {
		env.Violatef(-1, "zombie probe node %d gen %d: want ErrFenced, got %v", node, gen, err)
	}
}

// HandleRestart reboots a restarted node's scheduler workers and
// rejoins member+agent under a bumped generation; the controller's
// EvJoin hook then reopens whatever gates the death sweep closed.
func (w *healthWorkload) HandleRestart(env *Env, node int) {
	if err := w.rack.Restarted(node); err != nil {
		env.Violatef(-1, "restart rejoin node %d: %v", node, err)
	}
}

// Clients: the store writers see ErrFenced MORE often here than in the
// membership sweep — besides the death sweep, every proactive drain
// fences the degraded node's live views early, and the writer's
// reattach-under-current-fence is the sanctioned way a gray node keeps
// serving its own traffic.
func (w *healthWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < healthSubmitters; i++ {
		ci := 0xD0 + i
		out = append(out, func() { submitStorm(env, w.rack.Sched, w.rack.Tasks, ci) })
	}
	for id := 0; id < env.Cfg.Nodes; id++ {
		node := id
		out = append(out, func() { w.stream.writer(env, node, 0xE00+node) })
	}
	out = append(out, func() { w.stream.reader(env, 0, 0xF00) })
	out = append(out, func() { w.graygen(env) })
	return out
}

// graygen is the seeded gray-failure generator: bursts of single-bit
// flips against one victim's sentinel line, each one scrubbed, charged
// to the victim's error EWMA, and repaired — at-rest corruption
// surfacing as a node-health signal without the node ever observing the
// fault itself. The cool-down between bursts lets the EWMA decay so the
// victim recovers and the drain/rejoin cycle runs again.
func (w *healthWorkload) graygen(env *Env) {
	rng := env.Rand(0xC3)
	ci := 0xC00
	nodes := env.Cfg.Nodes
	completed := 0
	for completed < env.Cfg.OpsPerClient {
		victim := 1 + rng.Intn(nodes-1) // node 0 hosts the controller
		for b := 0; b < graygenBurst && completed < env.Cfg.OpsPerClient; b++ {
			word := w.sentG.Add(uint64(victim)*fabric.LineSize + uint64(rng.Intn(fabric.LineSize/8))*8)
			env.Fab.Faults().FlipBitAtHome(env.Fab, word, uint(rng.Intn(64)))
			bad := w.scrub.ScrubOnce()
			if len(bad) == 0 {
				env.Violatef(ci, "scrub pass missed a planted flip on node %d", victim)
			}
			for _, r := range bad {
				id := int(uint64(r.G-w.sentG) / fabric.LineSize)
				w.rack.Source(id).AddErrors(1)
				w.scrub.Repair(r, w.sentPattern(id))
			}
			completed++
			env.OpDone()
			time.Sleep(50 * time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Check: exactly-once, the quiescent store (drains fence views, never
// write), then convergence — with faults off every node returns to Alive
// and every Degraded verdict clears (the EWMAs decay, the recovery
// hysteresis flips the verdict, the controller rejoins).
func (w *healthWorkload) Check(env *Env) {
	defer w.rack.Stop()
	auditTasks(env, w.rack.Tasks)
	w.stream.check(env)
	for _, v := range w.rack.Converge() {
		env.Violatef(-1, "%s", v)
	}
}
