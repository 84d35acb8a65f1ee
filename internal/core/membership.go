package core

import (
	"flacos/internal/fabric"
	"flacos/internal/health"
	"flacos/internal/membership"
	"flacos/internal/serverless"
)

// EnableMembership boots the coordinated failure-detection layer
// (internal/membership) over this rack through the rack's control plane
// (health.Plane): every node joins slot i=node i, activates, and starts
// its heartbeat publisher and detector agent. The scheduler's placement
// immediately consults the table's liveness oracle, and ONE membership
// Dead event drives recovery everywhere, from the self-healing
// controller on node 0's event stream:
//
//   - sched gates the dead node out and reclaims every lease it held
//     (one sweep, not per-lease expiry),
//   - the redis RackStore (if booted) fences the dead node's views at
//     its generation, so zombie writes bounce with ErrFenced,
//   - every serverless control plane re-places the dead node's warm
//     containers on live nodes.
//
// Node 0 hosts the controller, so node 0's own death is swept by nobody:
// sched's lease-expiry keeper still reclaims its tasks.
// Idempotent; later calls return the same table.
func (r *Rack) EnableMembership(cfg membership.Config) *membership.Table {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	if r.table != nil {
		return r.table
	}
	r.table = membership.New(r.Fabric, cfg)
	r.Scheduler().SetLiveness(r.table.Alive)
	gates := recoveryGates{r}
	r.plane = health.NewPlane(r.table, health.ControllerConfig{
		Sched:      r.Scheduler(),
		Store:      gates,
		Serverless: []health.ServerlessGate{gates},
	}, nil, r.Trace())
	for i := 0; i < r.Fabric.NumNodes(); i++ {
		if err := r.plane.Join(i, nil); err != nil {
			panic("core: membership boot join failed: " + err.Error())
		}
	}
	return r.table
}

// Membership returns the rack's membership table, or nil before
// EnableMembership.
func (r *Rack) Membership() *membership.Table {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	return r.table
}

// recoveryGates hands the controller what the rack has booted: the store
// only once RedisStore has laid it out (recovery must not boot
// subsystems as a side effect), and every serverless control plane,
// including those stood up after EnableMembership.
type recoveryGates struct{ r *Rack }

func (g recoveryGates) FenceNode(from *fabric.Node, node int, gen uint64) int {
	if !g.r.redisBooted.Load() {
		return 0
	}
	return g.r.redis.FenceNode(from, node, gen)
}

func (g recoveryGates) EvictNode(id int) int {
	g.r.ctlMu.Lock()
	ctls := append([]*serverless.Controller(nil), g.r.ctls...)
	g.r.ctlMu.Unlock()
	evicted := 0
	for _, ctl := range ctls {
		evicted += ctl.EvictNode(id)
	}
	return evicted
}

// StopMembership halts every member's goroutines (Shutdown calls this).
func (r *Rack) StopMembership() {
	r.memMu.Lock()
	p := r.plane
	r.memMu.Unlock()
	if p != nil {
		p.Stop()
	}
}
