package sched

import (
	"encoding/binary"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// worker is one claiming goroutine of node id — one of the node's CPUs
// from the scheduler's point of view. It drains the node-private local
// queue first (hottest path), then the announcement inbox, then scans
// the global table (own-preferred tasks first, then stealing). When the
// node crashes, the fabric panics on its next memory operation and the
// worker dies with its node.
func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	n := s.fab.Node(id)
	defer n.AbsorbCrash() // this CPU died with its node
	timer := time.NewTimer(s.cfg.IdleTick)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		// 1. Node-private run queue: plain Go, zero fabric traffic.
		select {
		case t := <-s.localQ[id]:
			t(n)
			s.localRun.Add(1)
			s.localDone.Add(1)
			continue
		default:
		}
		// A node gated off by membership (hot-plug in progress: joined
		// the fabric, not yet resynced/activated) runs only its local
		// queue — it must not claim rack work it cannot yet serve.
		if !s.notServing[id].Load() {
			// 2. Announcement inbox: the fast path for tasks placed here.
			if slot, ok := s.popInbox(n, id); ok {
				s.claimAndRun(n, id, slot)
				continue
			}
			// 3. Global table: own-preferred first, then cross-node steal.
			if n.AtomicLoad64(s.queuedG()) > 0 && s.scanAndRun(n, id) {
				continue
			}
		}
		// 4. Idle: wait for a doorbell or the next steal tick.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(s.cfg.IdleTick)
		select {
		case <-s.stop:
			return
		case <-s.notify[id]:
		case <-timer.C:
		case t := <-s.localQ[id]:
			t(n)
			s.localRun.Add(1)
			s.localDone.Add(1)
		}
	}
}

// popInbox pops one announced slot index from the node's inbox ring.
// The ring is multi-producer single-consumer; the node-private mutex
// funnels this node's many workers into the one consumer role.
func (s *Scheduler) popInbox(n *fabric.Node, id int) (uint64, bool) {
	s.inboxMu[id].Lock()
	defer s.inboxMu[id].Unlock()
	var buf [8]byte
	ln, ok := s.inboxes[id].TryPop(n, buf[:])
	if !ok || ln != 8 {
		return 0, false
	}
	slot := binary.LittleEndian.Uint64(buf[:])
	if slot >= s.cfg.TableCap {
		// The ring payload travels through the cache, so a fault sweep can
		// hand us garbage. Announcements are only hints; drop it and let
		// the table scan find the real task.
		return 0, false
	}
	return slot, true
}

// scanAndRun walks the task table looking for Queued work: first a task
// preferring this node, otherwise any task (a steal). Returns whether a
// task was claimed and run.
func (s *Scheduler) scanAndRun(n *fabric.Node, id int) bool {
	cap := s.cfg.TableCap
	start := uint64(id) * (cap / uint64(s.fab.NumNodes()))
	now := nowNS()
	fallback, haveFallback := uint64(0), false
	for k := uint64(0); k < cap; k++ {
		i := (start + k) % cap
		if stState(n.AtomicLoad64(s.stateG(i))) != stQueued {
			continue
		}
		pref := routePreferred(n.AtomicLoad64(s.routeG(i)))
		if pref == id {
			if s.claimAndRun(n, id, i) {
				return true
			}
			continue
		}
		if haveFallback {
			continue
		}
		// Steal grace: leave a fresh task to its live preferred node —
		// "live" by the membership oracle when one is installed, so tasks
		// preferring a declared-dead node are stealable immediately.
		if pref != noPreference && s.placeable(pref) &&
			latencyNS(n.AtomicLoad64(s.enqG(i)), now) < float64(s.cfg.StealGrace.Nanoseconds()) {
			continue
		}
		fallback, haveFallback = i, true
	}
	if haveFallback {
		return s.claimAndRun(n, id, fallback)
	}
	return false
}

// claimAndRun CASes the slot Queued->Running on behalf of node id, runs
// the task, and publishes completion with a generation-advancing CAS.
// A failed claim (someone else won the race) returns false. The claim
// CAS is the single point of ownership: announcements and scans are
// only hints.
func (s *Scheduler) claimAndRun(n *fabric.Node, id int, slot uint64) bool {
	w := n.AtomicLoad64(s.stateG(slot))
	if stState(w) != stQueued {
		s.nodeClaimFail[id].Add(1)
		return false
	}
	running := packState(stGen(w), stAttempt(w), id, stRunning)
	if !n.CAS64(s.stateG(slot), w, running) {
		s.nodeClaimFail[id].Add(1)
		return false
	}
	// Lease: record the beat this claim starts at; the node's keeper
	// renews it by advancing the heartbeat every tick.
	n.AtomicStore64(s.leaseG(slot), n.AtomicLoad64(s.beatG(id)))
	n.Add64(s.queuedG(), ^uint64(0))
	assigned := routeAssigned(n.AtomicLoad64(s.routeG(slot)))
	if assigned != id {
		n.Add64(s.loadG(assigned), ^uint64(0))
		n.Add64(s.loadG(id), 1)
		s.stolen.Add(1)
	}
	enq := n.AtomicLoad64(s.enqG(slot))
	claimed := nowNS()
	if stAttempt(w) > 0 {
		s.redispatch.Record(latencyNS(enq, claimed))
	} else {
		s.dispatch.Record(latencyNS(enq, claimed))
	}
	if tw := s.tw(id); tw != nil {
		tw.Begin(trace.SubSched, trace.KDispatch, slot, stAttempt(w))
		if assigned != id {
			tw.Emit(trace.SubSched, trace.KSteal, 0, slot, uint64(assigned))
		}
	}
	fnID := n.AtomicLoad64(s.fnG(slot))
	arg0 := n.AtomicLoad64(s.arg0G(slot))
	arg1 := n.AtomicLoad64(s.arg1G(slot))
	cell := n.AtomicLoad64(s.cellG(slot))

	s.fn(fnID)(n, arg0, arg1)

	// Completion: only the incarnation whose exact (gen, attempt, owner)
	// word is still current may free the slot — a task re-dispatched
	// after a (possibly false) lease expiry bumped the attempt, so a
	// stale runner's CAS fails here and completion stays exactly-once.
	if n.CAS64(s.stateG(slot), running, packState(stGen(w)+1, 0, 0, stFree)) {
		if cell != 0 {
			n.Add64(fabric.GPtr(cell), 1)
		}
		n.Add64(s.completedG(), 1)
		n.Add64(s.loadG(id), ^uint64(0))
		s.service.Record(latencyNS(claimed, nowNS()))
		if tw := s.tw(id); tw != nil {
			tw.End(trace.SubSched, trace.KComplete, slot, stAttempt(w))
		}
	}
	return true
}
