package sched

import (
	"flacos/internal/fabric"
)

// This file is the scheduler's membership integration. The scheduler
// predates the membership layer and keeps working without it (crash
// checks + lease keeper), but when core wires a membership table in:
//
//   - SetLiveness installs the table's host-side liveness oracle, so
//     placement stops routing to nodes the rack has declared dead long
//     before their leases would expire;
//   - SetNodeServing gates a node's pull paths off while it is joining
//     (hot-plug: present on the fabric, not yet resynced);
//   - ReclaimNode reclaims every lease a dead node holds in ONE sweep,
//     driven by the membership Dead event, instead of waiting for each
//     lease to expire individually under the keeper's probe cadence.

// SetLiveness installs a liveness oracle consulted by every placement
// decision (Submit targeting, PickNode, steal grace). A
// node is placeable only if it is not crashed AND the oracle approves.
// A nil oracle (the default) restores crash-check-only behavior. The
// oracle runs on hot paths: it must be a cheap host-side read, like
// membership.(*Table).Alive.
func (s *Scheduler) SetLiveness(fn func(int) bool) {
	if fn == nil {
		s.liveness.Store(nil)
		return
	}
	s.liveness.Store(&fn)
}

// SetNodeServing gates node id's work-pulling paths. While not serving,
// the node's workers claim nothing: they do not pop announcements, scan
// the table, or steal — the state of a hot-plugged node that has joined
// the fabric but not yet activated.
// Placement likewise skips non-serving nodes. Nodes default to serving.
//
// Once SetNodeServing(id, false) returns, node id claims no task queued
// after that: a claim checks the gate after it loads the task's Queued
// word, and a word stored after the gate is seen only with the gate.
// A claim of a task queued earlier may still be in flight and run.
func (s *Scheduler) SetNodeServing(id int, serving bool) {
	if id < 0 || id >= len(s.notServing) {
		return
	}
	s.notServing[id].Store(!serving)
	if serving {
		s.wake(id)
	}
}

// nodeAlive reports whether node id is up: not crashed, and not
// declared dead by the membership oracle if one is installed.
func (s *Scheduler) nodeAlive(id int) bool {
	if id < 0 || id >= s.fab.NumNodes() || s.fab.Node(id).Crashed() {
		return false
	}
	if fn := s.liveness.Load(); fn != nil {
		return (*fn)(id)
	}
	return true
}

// placeable reports whether node id may receive new work.
func (s *Scheduler) placeable(id int) bool {
	return s.nodeAlive(id) && !s.notServing[id].Load()
}

// ReclaimNode reclaims every lease node dead currently holds: each
// Running slot owned by it is re-queued on node from with a bumped
// attempt (fencing the dead owner's completion CAS), one CAS per slot. It is the membership Dead event's recovery hook — one
// detection, all leases at once — and returns how many were reclaimed.
// Idempotent: a second sweep finds nothing Running under that owner.
// The keeper's per-lease expiry stays on as the backstop for racks
// running without a membership table.
func (s *Scheduler) ReclaimNode(from *fabric.Node, dead int) int {
	if dead < 0 || dead >= s.fab.NumNodes() {
		return 0
	}
	reclaimed := 0
	for i := uint64(0); i < s.cfg.TableCap; i++ {
		w := slotWord(from.AtomicLoad64(s.stateG(i)))
		if w.State() != stRunning || w.Owner() != dead {
			continue
		}
		if s.reclaim(from, from.ID(), i, w) {
			reclaimed++
		}
	}
	return reclaimed
}
