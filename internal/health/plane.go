package health

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/membership"
	"flacos/internal/trace"
)

// Plane is a rack's control plane: the membership (re)join protocol, one
// self-healing Controller on node 0's event stream — its death sweep is
// the rack's only Dead sweep — and, when the rack runs them, a health
// agent on every member's loop so the controller drains degrading nodes
// as well. Node 0 hosts the controller and never rejoins through it;
// node 0's own death is swept by nobody.
type Plane struct {
	table  *membership.Table
	ctl    *Controller
	layer  *Layer // nil without signal sources
	srcs   []*NodeSource
	joinMu sync.Mutex // serializes whole-node (re)join sequences
	mu     sync.Mutex // guards members across rejoins
	// members are by node id, nil until joined.
	members []*membership.Member
	rec     *trace.Recorder // fixed at NewPlane
}

// NewPlane builds the control plane over table. cfg's gates and OnStage
// drive the controller; its From is node 0 and its Rejoin the plane's
// own Join, whatever cfg holds there. srcs, indexed by node id, puts a
// health agent on every member's loop; nil runs none. rec, when set,
// wires every member, agent and the controller into the flight recorder.
// No node joins until Join.
func NewPlane(table *membership.Table, cfg ControllerConfig, srcs []*NodeSource, rec *trace.Recorder) *Plane {
	f := table.Fabric()
	p := &Plane{
		table:   table,
		srcs:    srcs,
		members: make([]*membership.Member, f.NumNodes()),
		rec:     rec,
	}
	cfg.From, cfg.Rejoin = f.Node(0), p.rejoin
	// Join subscribes the controller to every new node-0 member, so it
	// outlives a node-0 rejoin.
	p.ctl = NewController(cfg)
	p.ctl.SetTrace(rec.Writer(0))
	if srcs != nil {
		p.layer = New(table)
	}
	return p
}

// Join (re)joins node id under a bumped generation: it stops the node's
// previous member (and with it the health agent that runs on its loop),
// claims the node's slot, runs resync while the member is still Joining,
// activates, attaches the health agent, and starts the loops. Boot,
// hot-plug, crash restart, controller recovery and quiescent repair of a
// false Dead verdict are all this one protocol action. A node that
// crashes mid-join fails it with a fabric.CrashedError.
func (p *Plane) Join(id int, resync func()) error {
	// Stop the previous member before queueing for joinMu as well as
	// after: member 0's loop runs the controller, whose rejoins take
	// joinMu, so a rejoin of node 0 that held joinMu while it waited for
	// that loop would never get it back.
	if oldM := p.Member(id); oldM != nil {
		oldM.Stop()
	}
	p.joinMu.Lock()
	defer p.joinMu.Unlock()
	n := p.table.Fabric().Node(id)
	if oldM := p.Member(id); oldM != nil {
		oldM.Stop() // a concurrent Join of id started it while we queued
	}
	var m *membership.Member
	err := fmt.Errorf("join: %w", fabric.CrashedError{Node: id}) // unless the sequence completes
	func() {
		defer n.AbsorbCrash()
		jm, jerr := p.table.Join(n)
		if jerr == nil {
			jm.SetTrace(p.rec.Writer(id))
			if resync != nil {
				resync()
			}
			jerr = jm.Activate()
		}
		m, err = jm, jerr
	}()
	if err != nil {
		return err
	}
	if id == 0 {
		m.Subscribe(p.ctl.OnEvent)
	}
	if p.layer != nil {
		p.layer.Join(m, p.srcs[id])
	}
	m.Start()
	p.mu.Lock()
	p.members[id] = m
	p.mu.Unlock()
	return nil
}

// rejoin is the controller's recovery callback. It runs inline on the
// controller's event goroutine — node 0's agent loop — so node 0 cannot
// rejoin through it: Join would wait for that very goroutine to stop.
func (p *Plane) rejoin(node int, gen uint64) error {
	if node == 0 {
		return fmt.Errorf("node 0 hosts the controller and does not self-rejoin")
	}
	return p.Join(node, nil)
}

// Member returns node id's current member, nil before its first join.
func (p *Plane) Member(id int) *membership.Member {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.members[id]
}

// Degraded reports whether node id stands under a Degraded verdict
// (always false on a plane without health agents).
func (p *Plane) Degraded(id int) bool { return p.layer != nil && p.layer.Degraded(id) }

// Stop halts every member and the health agents on their loops. Member 0
// stops first: the controller runs on its loop, and a rejoin it has in
// flight replaces another node's member.
func (p *Plane) Stop() {
	if m := p.Member(0); m != nil {
		m.Stop()
	}
	p.mu.Lock()
	members := append([]*membership.Member(nil), p.members...)
	p.mu.Unlock()
	for _, m := range members {
		if m != nil {
			m.Stop()
		}
	}
}
