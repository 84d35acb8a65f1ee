package core

import (
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/membership"
	"flacos/internal/redis"
	"flacos/internal/serverless"
	"flacos/internal/trace"
)

// membershipState is the rack's membership wiring: the table, each
// node's member handle, and the dedup that makes the rack-wide event
// stream drive recovery exactly once per death.
type membershipState struct {
	mu      sync.Mutex
	table   *membership.Table
	members []*membership.Member
	dead    membership.DeadOnce
}

// EnableMembership boots the coordinated failure-detection layer
// (internal/membership) over this rack: every node joins slot i=node i,
// activates, and starts its heartbeat publisher and detector agent. The
// scheduler's placement immediately consults the table's liveness
// oracle, and ONE membership Dead event drives recovery everywhere:
//
//   - sched reclaims every lease the dead node held (one sweep, not
//     per-lease expiry),
//   - the redis RackStore (if booted) fences the dead node's views at
//     its generation, so zombie writes bounce with ErrFenced,
//   - every serverless control plane re-places the dead node's warm
//     containers on live nodes.
//
// Recovery is deduplicated on (slot, generation): every live member's
// agent observes the same transition, but only the first delivery acts.
// Idempotent; later calls return the same table.
func (r *Rack) EnableMembership(cfg membership.Config) *membership.Table {
	r.mem.mu.Lock()
	if r.mem.table != nil {
		t := r.mem.table
		r.mem.mu.Unlock()
		return t
	}
	table := membership.New(r.Fabric, cfg)
	r.mem.table = table
	r.mem.mu.Unlock()

	r.Scheduler().SetLiveness(table.Alive)
	tr := r.Trace()
	members := make([]*membership.Member, r.Fabric.NumNodes())
	for i := 0; i < r.Fabric.NumNodes(); i++ {
		n := r.Fabric.Node(i)
		m, err := table.JoinSlot(n, i)
		if err != nil {
			panic("core: membership boot join failed: " + err.Error())
		}
		if tr != nil {
			m.SetTrace(tr.Writer(i))
		}
		if err := m.Activate(); err != nil {
			panic("core: membership boot activate failed: " + err.Error())
		}
		m.Subscribe(func(ev membership.Event) { r.onMembershipEvent(n, ev) })
		m.Start()
		members[i] = m
	}
	r.mem.mu.Lock()
	r.mem.members = members
	r.mem.mu.Unlock()
	return table
}

// Membership returns the rack's membership table, or nil before
// EnableMembership.
func (r *Rack) Membership() *membership.Table {
	r.mem.mu.Lock()
	defer r.mem.mu.Unlock()
	return r.mem.table
}

// onMembershipEvent runs on a member agent's goroutine for every
// rack-wide transition that agent observed. Only Dead needs action here
// (Join/Suspect/Alive/Left are already in the control table and the
// flight recorder); recovery runs once per (slot, generation) from the
// first observer to deliver it.
func (r *Rack) onMembershipEvent(observer *fabric.Node, ev membership.Event) {
	if !r.mem.dead.First(ev) || observer.Crashed() {
		return
	}
	// Lease reclaim first: queued work restarts fastest. The sweep runs
	// from the observing node; a concurrent keeper expiry of the same
	// slot is harmless (both paths CAS, one wins).
	r.Scheduler().ReclaimNode(observer, ev.Node)
	// Fence the store at the dead generation so the zombie's writes
	// bounce before any client can observe them.
	if store := r.redisIfBooted(); store != nil {
		store.FenceNode(observer, ev.Node, ev.Generation)
		if t := r.Trace(); t != nil {
			t.Writer(observer.ID()).Emit(trace.SubRedis, trace.KViewFence, 0, uint64(ev.Node), ev.Generation)
		}
	}
	// Re-place the dead node's containers on live nodes.
	r.ctlMu.Lock()
	ctls := make([]*serverless.Controller, len(r.ctls))
	copy(ctls, r.ctls)
	r.ctlMu.Unlock()
	for _, ctl := range ctls {
		ctl.EvictNode(ev.Node)
	}
}

// redisIfBooted returns the rack store only if RedisStore has already
// run — membership recovery must not boot subsystems as a side effect.
func (r *Rack) redisIfBooted() *redis.RackStore {
	if !r.redisBooted.Load() {
		return nil
	}
	return r.redis
}

// StopMembership halts every member's goroutines (Shutdown calls this).
func (r *Rack) StopMembership() {
	r.mem.mu.Lock()
	members := r.mem.members
	r.mem.mu.Unlock()
	for _, m := range members {
		if m != nil {
			m.Stop()
		}
	}
}
