package redis

import (
	"errors"

	"flacos/internal/fabric"
)

// Generation fencing: the membership layer's answer to zombie servers.
// Every view carries the membership generation its node was serving
// under when it attached; the store keeps one fence word per node
// (fabric atomics only). When the rack declares a node dead at
// generation g, FenceNode raises that node's fence above g and fences
// the quiescence participant of every view the node attached at
// generation <= g — from then on every WRITE through such a view is
// rejected with ErrFenced, deterministically, on every node. A node that
// was falsely declared dead and keeps executing cannot corrupt the shared
// keyspace: its writes bounce until it rejoins under a bumped
// generation and attaches fresh views.
//
// A view pays nothing to find out. Every mutation opens its read section
// first, and the swap that publishes the section's reservation returns
// the fence mark if FenceNode has been there (quiescence's package
// comment): the participant latches, and the mutation leaves its section
// and returns ErrFenced before it has changed anything. The fence word is
// consulted only when a view is attached (RackStore.attach orders that
// against FenceNode). The guarantee is the one a fence-word load before
// every write gave: a write whose section begins after FenceNode returns
// is rejected; a write already inside its section when the fence lands
// may still publish, as a write already past that load could.
//
// Reads are NOT fenced: entry blocks are immutable and published with
// write-back-then-publish, so a zombie's reads return a consistent (if
// slightly stale) snapshot and cannot damage anything; they go on holding
// ordinary reservations, so what they read is not reclaimed under them.
// This mirrors sched's lease fencing, where the stale owner may finish
// computing but its completion CAS fails.

// ErrFenced is returned by write operations through a view whose
// generation the rack has fenced off. The holder must discard the view
// and re-attach (with the post-rejoin generation) to resume writing.
var ErrFenced = errors.New("redis: view fenced (node declared dead at this generation)")

func (s *RackStore) fenceSlotG(node int) fabric.GPtr {
	return s.fenceG.Add(uint64(node) * 8)
}

// AttachGen creates a view like Attach but records gen as the view's
// membership generation. Membership-aware callers (core's resync path,
// the torture membership workload) pass the generation their node
// joined under, so a later FenceNode for an OLDER generation leaves the
// new view serving. A generation below the node's fence level is one the
// rack has already fenced: the view is a zombie from its first write.
func (s *RackStore) AttachGen(n *fabric.Node, gen uint64) *View { return s.attach(n, gen, false) }

// enterWrite opens the read section a mutation runs in and reports
// whether the view may write. A fenced view is left outside the section.
func (v *View) enterWrite() bool {
	v.p.Enter()
	if v.p.Fenced() {
		v.p.Exit()
		return false
	}
	return true
}

// FenceNode fences node nodeID at membership generation gen, acting
// from live node `from`: the node's fence word is raised to gen+1
// (monotonic — a later generation's fence is never lowered), and every
// tracked view that node attached at generation <= gen has its
// quiescence participant fenced: epoch advance cannot stall on the dead
// node's read sections, and a view that turns out to be alive learns of
// the fence from its next section. The word is raised BEFORE the sweep
// takes s.mu; attach depends on that order. Idempotent per (nodeID,
// gen); returns how many views were newly fenced. It is the membership
// Dead event's recovery hook for the store.
func (s *RackStore) FenceNode(from *fabric.Node, nodeID int, gen uint64) int {
	if nodeID < 0 || nodeID >= s.fab.NumNodes() {
		return 0
	}
	g := s.fenceSlotG(nodeID)
	for {
		cur := from.AtomicLoad64(g)
		if cur > gen {
			break // already fenced at or above this generation
		}
		if from.CAS64(g, cur, gen+1) {
			break
		}
	}
	s.mu.Lock()
	var fenced []*View
	keep := s.byNode[nodeID][:0]
	for _, v := range s.byNode[nodeID] {
		if v.gen <= gen {
			fenced = append(fenced, v)
		} else {
			keep = append(keep, v)
		}
	}
	s.byNode[nodeID] = keep
	s.mu.Unlock()
	for _, v := range fenced {
		s.dom.Fence(from, v.id)
	}
	return len(fenced)
}
