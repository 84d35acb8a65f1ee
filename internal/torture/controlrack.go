package torture

import (
	"fmt"
	"sync"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/health"
	"flacos/internal/membership"
	"flacos/internal/redis"
	"flacos/internal/sched"
	"flacos/internal/trace"
)

// ControlRack is the control plane every membership / health harness
// stands up on a fabric: a scheduler tuned so that timely crash recovery
// must come from the membership path, an audited task ledger, the
// fenced RackStore, and — by configuration — the membership table with
// its coordinated Dead sweep, or the health layer with its self-healing
// controller. Node 0 hosts the sweep (or the controller) and must never
// be crashed.
type ControlRack struct {
	Fab   *fabric.Fabric
	Sched *sched.Scheduler
	Store *redis.RackStore
	Tasks *Ledger
	Table *membership.Table // nil without a membership layer

	layer  *health.Layer      // nil without ControlConfig.Health
	ctl    *health.Controller // nil without ControlConfig.Health
	trace  *trace.Recorder
	dead   membership.DeadOnce
	joinMu sync.Mutex // serializes whole-node (re)join sequences
	mu     sync.Mutex // guards members/agents across rejoins
	// members and agents are by node id, nil until joined; srcs are
	// stable across rejoins.
	members []*membership.Member
	agents  []*health.Agent
	srcs    []*health.NodeSource
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
	// Health adds a health agent beside every member and hands node 0's
	// event stream to a self-healing controller (which then owns the
	// Dead sweep too); OnStage is that controller's stage hook.
	Health  bool
	OnStage func(st health.Stage, node int, gen uint64)
	// Trace, when set, wires every component into the flight recorder.
	Trace *trace.Recorder
}

// NewControlRack builds the control plane on f and boots it.
func NewControlRack(f *fabric.Fabric, cfg ControlConfig) *ControlRack {
	r := &ControlRack{Fab: f, trace: cfg.Trace}
	// ProbeRounds x ReclaimTick = 20ms: the keeper's lease expiry is the
	// conservative per-subsystem backstop. Timely crash recovery comes
	// from the membership Dead sweep, and torture's 25ms stall detector
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

	nodes := f.NumNodes()
	r.Table = membership.New(f, membership.Config{
		HeartbeatTick: 100 * time.Microsecond,
		PhiSuspect:    3,
		PhiDead:       cfg.PhiDead,
		DeadStrikes:   cfg.DeadStrikes,
	})
	r.members = make([]*membership.Member, nodes)
	r.agents = make([]*health.Agent, nodes)
	if cfg.Health {
		r.layer = health.New(r.Table, health.Config{
			Tick:         100 * time.Microsecond,
			EnterStrikes: 2,
			ExitStrikes:  4,
		})
		r.srcs = make([]*health.NodeSource, nodes)
		for id := range r.srcs {
			r.srcs[id] = health.NewNodeSource(f.Node(id), r.Sched)
		}
		// The controller is fed node 0's stream by onEvent rather than
		// subscribed to one member, so it survives node 0 rejoining.
		r.ctl = health.NewController(nil, health.ControllerConfig{
			Sched:   r.Sched,
			Store:   r.Store,
			Rejoin:  r.ctlRejoin,
			OnStage: cfg.OnStage,
			From:    f.Node(0),
		})
		r.ctl.SetTrace(cfg.Trace.Writer(0))
	}
	boot := nodes
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

// Join (re)joins node id under a bumped generation: it reaps the node's
// previous member and health agent (an agent publishes records stamped
// with its member's generation, so the two always rejoin together),
// claims the node's slot, runs resync while the member is still Joining,
// activates, and starts the loops. Boot, hot-plug, crash restart,
// controller recovery and quiescent repair of a false Dead verdict are
// all this one protocol action. A node that crashes mid-join fails it
// with a fabric.CrashedError.
func (r *ControlRack) Join(id int, resync func()) error {
	r.joinMu.Lock()
	defer r.joinMu.Unlock()
	n := r.Fab.Node(id)
	r.mu.Lock()
	oldM, oldA := r.members[id], r.agents[id]
	r.mu.Unlock()
	if oldA != nil {
		oldA.Stop()
	}
	if oldM != nil {
		oldM.Stop()
	}
	var m *membership.Member
	var err error
	if !RunOp(n, func() {
		if m, err = r.Table.Join(n); err != nil {
			return
		}
		m.SetTrace(r.trace.Writer(id))
		if resync != nil {
			resync()
		}
		err = m.Activate()
	}) {
		return fmt.Errorf("join: %w", fabric.CrashedError{Node: id})
	}
	if err != nil {
		return err
	}
	if id == 0 {
		m.Subscribe(r.onEvent)
	}
	m.Start()
	var a *health.Agent
	if r.layer != nil {
		a = r.layer.Join(m, r.srcs[id])
		a.SetTrace(r.trace.Writer(id))
		a.Start()
	}
	r.mu.Lock()
	r.members[id], r.agents[id] = m, a
	r.mu.Unlock()
	return nil
}

// Restarted re-integrates a node the fabric just restarted: its
// scheduler workers reboot, and if it had joined before it rejoins its
// slot under a bumped generation (a node that crashed before hot-plugging
// is joined by whoever hot-plugs it).
func (r *ControlRack) Restarted(id int) error {
	r.Sched.RebootNode(id)
	if r.Table == nil || r.Member(id) == nil {
		return nil
	}
	return r.Join(id, nil)
}

// Member returns node id's current member, nil before its first join.
func (r *ControlRack) Member(id int) *membership.Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[id]
}

// Source returns node id's health signal source (Health racks only).
func (r *ControlRack) Source(id int) *health.NodeSource { return r.srcs[id] }

// onEvent consumes node 0's view of the rack-wide event stream.
func (r *ControlRack) onEvent(ev membership.Event) {
	if r.ctl != nil {
		r.ctl.OnEvent(ev)
		return
	}
	r.SweepDead(ev)
}

// SweepDead is the rack's coordinated recovery, once per (slot,
// generation): reclaim every lease the dead node held, then fence its
// store views at the dead generation so zombie writes bounce with
// ErrFenced. It runs through node 0, so the sweep always has a live home.
func (r *ControlRack) SweepDead(ev membership.Event) {
	if !r.dead.First(ev) {
		return
	}
	n0 := r.Fab.Node(0)
	r.Sched.ReclaimNode(n0, ev.Node)
	r.Store.FenceNode(n0, ev.Node, ev.Generation)
}

// ctlRejoin is the controller's recovery callback. It runs inline on the
// controller's event goroutine — node 0's agents — so node 0 cannot
// rejoin through it: Join would wait for that very goroutine to stop.
func (r *ControlRack) ctlRejoin(node int, gen uint64) error {
	if node == 0 {
		return fmt.Errorf("node 0 hosts the controller and does not self-rejoin")
	}
	return r.Join(node, nil)
}

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
			case r.layer != nil && r.layer.Degraded(id):
				pending = append(pending, fmt.Sprintf("quiescent rack: node %d still under a Degraded verdict", id))
			}
		}
		if len(pending) == 0 || time.Now().After(deadline) {
			return pending
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// Stop halts every agent, member and scheduler goroutine so consecutive
// runs don't leak detector loops into each other.
func (r *ControlRack) Stop() {
	r.mu.Lock()
	agents := append([]*health.Agent(nil), r.agents...)
	members := append([]*membership.Member(nil), r.members...)
	r.mu.Unlock()
	for _, a := range agents {
		if a != nil {
			a.Stop()
		}
	}
	for _, m := range members {
		if m != nil {
			m.Stop()
		}
	}
	r.Sched.Stop()
}
