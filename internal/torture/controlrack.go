package torture

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/health"
	"flacos/internal/membership"
	"flacos/internal/redis"
	"flacos/internal/sched"
	"flacos/internal/trace"
)

// ControlRack is what every membership / health harness stands up on a
// fabric: a scheduler tuned so that timely crash recovery must come from
// the membership path, an audited task ledger, the fenced RackStore, and
// — by configuration — the rack's control plane (health.Plane): the
// membership table whose node-0 event stream feeds the self-healing
// controller (its death sweep is the rack's one Dead sweep), plus the
// health agents that let the controller drain degrading nodes too. Node
// 0 hosts the controller and must never be crashed.
type ControlRack struct {
	*health.Plane // nil without a membership layer

	Fab   *fabric.Fabric
	Sched *sched.Scheduler
	Store *redis.RackStore
	Tasks *Ledger
	Table *membership.Table // nil without a membership layer

	srcs []*health.NodeSource // nil without ControlConfig.Health

	// Per controller stage and node: the latest generation the stage
	// completed for, and when.
	stageMu sync.Mutex
	stages  [health.StageDead + 1][]stageMark
}

// stageMark is one stage's latest completion for one node.
type stageMark struct {
	gen uint64
	at  time.Time
}

// waitBound bounds every kit wait (Await, WaitTasks): crossing it means
// the path under test is broken, not slow. It is a var only so that the
// kit's own test need not wait this long.
var waitBound = 10 * time.Second

// ControlConfig sizes a ControlRack.
type ControlConfig struct {
	// Store sizes the shared RackStore (views are abandoned by every
	// crash and fence: size MaxViews for the run's churn).
	Store redis.RackStoreConfig
	// Tasks bounds how many tasks the run submits through the ledger;
	// Body is their function (see NewLedger).
	Tasks int
	Body  func(n *fabric.Node, arg0 uint64)
	// PhiDead and DeadStrikes tune the failure detector. PhiDead 0
	// builds the rack WITHOUT a membership layer: recovery then waits on
	// sched's lease-expiry keeper, the per-subsystem baseline.
	PhiDead     float64
	DeadStrikes int
	// HoldOutLast keeps the last node out of the boot population and
	// gated out of scheduling until Join hot-plugs it.
	HoldOutLast bool
	// Health attaches a health agent to every member, so the controller
	// on node 0's event stream drains degrading nodes as well as sweeping
	// dead ones.
	Health bool
	// OnStage is the controller's stage hook (see ControllerConfig).
	OnStage func(st health.Stage, node int, gen uint64)
	// Trace, when set, wires every component into the flight recorder.
	Trace *trace.Recorder
}

// NewControlRack builds the control plane on f and boots it.
func NewControlRack(f *fabric.Fabric, cfg ControlConfig) *ControlRack {
	r := &ControlRack{Fab: f}
	for st := range r.stages {
		r.stages[st] = make([]stageMark, f.NumNodes())
	}
	// ProbeRounds x ReclaimTick = 20ms: the keeper's lease expiry is the
	// conservative per-subsystem backstop. Timely crash recovery comes
	// from the controller's Dead sweep, and torture's 25ms stall detector
	// keeps a broken membership path from hiding behind the backstop.
	r.Sched = sched.New(f, sched.Config{
		TableCap:    128,
		Policy:      sched.PolicyLocality,
		ProbeRounds: 40,
		ReclaimTick: 500 * time.Microsecond,
		IdleTick:    200 * time.Microsecond,
		StealGrace:  500 * time.Microsecond,
		HistCap:     1024,
	})
	r.Sched.SetTrace(cfg.Trace)
	r.Tasks = NewLedger(f, r.Sched, cfg.Tasks, cfg.Body)
	r.Sched.Start()
	r.Store = redis.NewRackStore(f, cfg.Store)
	if cfg.PhiDead == 0 {
		return r
	}

	r.Table = membership.New(f, membership.Config{PhiDead: cfg.PhiDead, DeadStrikes: cfg.DeadStrikes})
	if cfg.Health {
		r.srcs = make([]*health.NodeSource, f.NumNodes())
		for id := range r.srcs {
			r.srcs[id] = health.NewNodeSource(f.Node(id))
		}
	}
	r.Plane = health.NewPlane(r.Table, health.ControllerConfig{
		Sched: r.Sched,
		Store: r.Store,
		OnStage: func(st health.Stage, node int, gen uint64) {
			r.stageMu.Lock()
			if m := &r.stages[st][node]; gen >= m.gen {
				*m = stageMark{gen: gen, at: time.Now()}
			}
			r.stageMu.Unlock()
			if cfg.OnStage != nil {
				cfg.OnStage(st, node, gen)
			}
		},
	}, r.srcs, cfg.Trace)
	boot := f.NumNodes()
	if cfg.HoldOutLast {
		boot--
		r.Sched.SetNodeServing(boot, false)
	}
	for id := 0; id < boot; id++ {
		if err := r.Join(id, nil); err != nil {
			panic(err)
		}
	}
	// Placement consults the table from here on. A crashed-but-undetected
	// node may still be chosen for a beat; the Dead sweep re-dispatches.
	r.Sched.SetLiveness(r.Table.Alive)
	return r
}

// Restarted re-integrates a node the fabric just restarted: its
// scheduler workers reboot, and if it had joined before it rejoins its
// slot under a bumped generation (a node that crashed before hot-plugging
// is joined by whoever hot-plugs it).
func (r *ControlRack) Restarted(id int) error {
	r.Sched.RebootNode(id)
	if r.Plane == nil || r.Member(id) == nil {
		return nil
	}
	return r.Join(id, nil)
}

// Source returns node id's health signal source (Health racks only).
func (r *ControlRack) Source(id int) *health.NodeSource { return r.srcs[id] }

// Restart restarts crashed node id on the fabric and re-integrates it.
func (r *ControlRack) Restart(id int) error {
	r.Fab.Node(id).Restart()
	return r.Restarted(id)
}

// CrashMidTask runs submit, which queues tasks through the ledger, and
// crashes victim once one of them has begun there, so the victim holds a
// lease that recovery must reclaim. It returns the tasks and the crash's
// wall time.
func (r *ControlRack) CrashMidTask(victim int, submit func() []sched.Handle) ([]sched.Handle, time.Time, error) {
	s0 := r.Tasks.Started(victim)
	hs := submit()
	if err := r.Await("torture.ControlRack.CrashMidTask", 10*time.Microsecond, func() bool {
		return r.Tasks.Started(victim) != s0
	}); err != nil {
		return nil, time.Time{}, err
	}
	at := time.Now()
	r.Fab.Node(victim).Crash()
	return hs, at, nil
}

// Crash is one CrashRound's outcome: how long after the crash it was
// detected, the controller's death sweep of it completed (membership
// racks only) and the round's tasks were done, and whether a view at the
// dead generation still wrote after the restart.
type Crash struct {
	Detect, Sweep, Done time.Duration
	Leaked              bool
}

// CrashRound runs one crash -> detect -> recover cycle against victim: it
// crashes victim mid-task under the tasks submit queues (CrashMidTask),
// waits for the crash to be detected and for those tasks to complete,
// and restarts the victim. On a membership rack detection is the Dead
// verdict, the round starts only once the victim is Alive (a previous
// round's victim may still be converging), and after the restart it
// waits for the controller's death sweep of the dead generation, which
// runs on its own event path and may land after the restart, and probes
// that generation's fence. Without a membership layer, detection is
// sched's lease-expiry keeper reclaiming a lease on its own.
func (r *ControlRack) CrashRound(victim int, submit func() []sched.Handle) (Crash, error) {
	var c Crash
	n0, tb := r.Fab.Node(0), r.Table
	every, detected := 20*time.Microsecond, func() bool { return !tb.Alive(victim) }
	var gen uint64
	if tb != nil {
		if err := r.Await("torture.ControlRack.CrashRound alive", 50*time.Microsecond, func() bool { return tb.Alive(victim) }); err != nil {
			return c, err
		}
		gen = r.Member(victim).Generation()
	} else {
		before := r.Sched.StatsFrom(n0).Reclaimed
		every, detected = 50*time.Microsecond, func() bool { return r.Sched.StatsFrom(n0).Reclaimed != before }
	}
	hs, at, err := r.CrashMidTask(victim, submit)
	if err == nil {
		err = r.Await("torture.ControlRack.CrashRound detect", every, detected)
	}
	if err != nil {
		return c, err
	}
	c.Detect = time.Since(at)
	if err := r.WaitTasks(hs...); err != nil {
		return c, err
	}
	c.Done = time.Since(at)
	if err := r.Restart(victim); err != nil {
		return c, fmt.Errorf("restart rejoin node %d: %w", victim, err)
	}
	if tb == nil {
		return c, nil
	}
	sweptAt, err := r.WaitStage(health.StageDead, victim, gen)
	if err != nil {
		return c, err
	}
	fenced, _ := r.Fenced(victim, gen)
	c.Sweep, c.Leaked = sweptAt.Sub(at), !fenced
	return c, nil
}

// Fenced is the zombie probe: a view of node attached at generation gen
// tries a SET, and Fenced reports whether it bounced with ErrFenced, and
// the SET's error. The view is released at once (through node 0, which
// never crashes); it is never used again. A crash of node under the probe
// panics as any fabric operation of node does.
func (r *ControlRack) Fenced(node int, gen uint64) (bool, error) {
	v := r.Store.AttachGen(r.Fab.Node(node), gen)
	err := v.Set(fmt.Sprintf("zk-%d", node), []byte("zombie"), 0)
	r.Store.FenceView(r.Fab.Node(0), v.ID())
	return errors.Is(err, redis.ErrFenced), err
}

// Stage returns the latest generation for which the controller
// completed stage st on node, 0 if none, and when that completion was.
func (r *ControlRack) Stage(st health.Stage, node int) (uint64, time.Time) {
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	m := r.stages[st][node]
	return m.gen, m.at
}

// WaitStage waits for the controller to complete stage st on node for
// generation gen or a later one, and returns when it did. A stage of a
// superseded generation (a death sweep of the incarnation a rejoin
// replaced, say) can complete at any time, so a wait names the
// generation it is for. The completion time is recorded, not polled, so
// the wait polls slowly and leaves the host to the tickers under test.
func (r *ControlRack) WaitStage(st health.Stage, node int, gen uint64) (time.Time, error) {
	err := r.Await("torture.ControlRack.WaitStage", 500*time.Microsecond, func() bool {
		g, _ := r.Stage(st, node)
		return g >= gen
	})
	_, at := r.Stage(st, node)
	return at, err
}

// Await polls cond through node 0's fabric.Node.Await, sleeping every
// between polls, until cond holds; while it waits, node 0's wait table
// names site. A wait still open after waitBound stops the scheduler
// (sched.Wait returns on that) and returns an error that lists every
// node's open waits.
func (r *ControlRack) Await(site string, every time.Duration, cond func() bool) error {
	return r.await(site, every, waitBound, cond)
}

func (r *ControlRack) await(site string, every, bound time.Duration, cond func() bool) error {
	deadline := time.Now().Add(bound)
	var err error
	r.Fab.Node(0).Await(fabric.Wait{Site: site, Every: 1, Sleep: every}, func() (uint64, bool) {
		switch {
		case cond():
			return 0, true
		case time.Now().After(deadline):
			err = r.expired(site, bound)
			return 0, true
		}
		return 0, false
	})
	return err
}

// WaitTasks waits through node 0 for every handle's task to complete. A
// wait still open after waitBound fails as Await's does.
func (r *ControlRack) WaitTasks(hs ...sched.Handle) error {
	var err error
	fired := make(chan struct{})
	t := time.AfterFunc(waitBound, func() {
		defer close(fired)
		err = r.expired("torture.ControlRack.WaitTasks", waitBound)
	})
	n0 := r.Fab.Node(0)
	for _, h := range hs {
		if !r.Sched.Wait(n0, h) {
			break
		}
	}
	if t.Stop() {
		return nil
	}
	<-fired
	return err
}

// expired records a kit wait that passed its bound: it lists every
// node's open waits, then stops the scheduler so that no submitter is
// left waiting on it.
func (r *ControlRack) expired(site string, bound time.Duration) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: still waiting after %v; open waits:", site, bound)
	for id := 0; id < r.Fab.NumNodes(); id++ {
		for _, w := range r.Fab.Node(id).Waits() {
			fmt.Fprintf(&b, "\n  %v", w)
		}
	}
	r.Sched.Stop()
	return errors.New(b.String())
}

// Converge waits for the quiescent rack (faults off, every node up) to
// return to every joined node Alive with no Degraded verdict standing,
// and returns what did not. A false Dead verdict is legitimate under phi
// (and SAFE — fencing already made it consistent); its repair is the
// same rejoin a restart uses, so Converge performs it rather than fail.
func (r *ControlRack) Converge() []string {
	var pending []string
	err := r.await("torture.ControlRack.Converge", 500*time.Microsecond, 5*time.Second, func() bool {
		pending = pending[:0]
		for id := 0; id < r.Fab.NumNodes(); id++ {
			switch {
			case r.Member(id) == nil:
				// never joined (its hot-plug bailed; already recorded)
			case !r.Table.Alive(id):
				pending = append(pending, fmt.Sprintf("quiescent rack: node %d never converged to Alive", id))
				if err := r.Join(id, nil); err != nil {
					pending = []string{fmt.Sprintf("quiescent rejoin node %d: %v", id, err)}
					return true
				}
			case r.Degraded(id):
				pending = append(pending, fmt.Sprintf("quiescent rack: node %d still under a Degraded verdict", id))
			}
		}
		return len(pending) == 0
	})
	if err != nil {
		pending = append(pending, err.Error())
	}
	return pending
}

// Stop halts the control plane's members (and the health agents on
// their loops) and the scheduler's goroutines, so consecutive runs don't
// leak detector loops into each other.
func (r *ControlRack) Stop() {
	if r.Plane != nil {
		r.Plane.Stop()
	}
	r.Sched.Stop()
}
