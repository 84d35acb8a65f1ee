package torture

import (
	"fmt"
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
}

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
			r.srcs[id] = health.NewNodeSource(f.Node(id), r.Sched)
		}
	}
	r.Plane = health.NewPlane(r.Table, health.ControllerConfig{
		Sched:   r.Sched,
		Store:   r.Store,
		OnStage: cfg.OnStage,
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

// Converge waits for the quiescent rack (faults off, every node up) to
// return to every joined node Alive with no Degraded verdict standing,
// and returns what did not. A false Dead verdict is legitimate under phi
// (and SAFE — fencing already made it consistent); its repair is the
// same rejoin a restart uses, so Converge performs it rather than fail.
func (r *ControlRack) Converge() []string {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var pending []string
		for id := 0; id < r.Fab.NumNodes(); id++ {
			switch {
			case r.Member(id) == nil:
				// never joined (its hot-plug bailed; already recorded)
			case !r.Table.Alive(id):
				pending = append(pending, fmt.Sprintf("quiescent rack: node %d never converged to Alive", id))
				if err := r.Join(id, nil); err != nil {
					return []string{fmt.Sprintf("quiescent rejoin node %d: %v", id, err)}
				}
			case r.Degraded(id):
				pending = append(pending, fmt.Sprintf("quiescent rack: node %d still under a Degraded verdict", id))
			}
		}
		if len(pending) == 0 || time.Now().After(deadline) {
			return pending
		}
		time.Sleep(500 * time.Microsecond)
	}
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
