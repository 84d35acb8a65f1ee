package sched

import (
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/trace"
)

// probe is a keeper's last observation of a Running slot: the state
// word, the owner's heartbeat, and how many consecutive ticks both have
// stayed frozen.
type probe struct {
	w       slotWord
	hb      uint64
	strikes int
}

// keeper is node id's housekeeping goroutine. Every tick it (a) bumps
// the node's heartbeat on the load board — implicitly renewing the
// lease of every task this node is running — and (b) probes other
// nodes' Running tasks for expired leases. A lease expires when the
// owner's heartbeat has not advanced for ProbeRounds consecutive ticks
// while the task's state word is also unchanged: a live-but-slow owner
// keeps beating (its keeper is an independent goroutine), so a frozen
// beat means the node is gone, exactly as Node.Crash leaves it.
//
// Reclaim detours the slot through Init so the routing word and board
// accounting are fixed before the task becomes claimable again; the
// bumped attempt counter fences out the dead (or falsely-suspected)
// owner's completion CAS.
func (s *Scheduler) keeper(id int) {
	defer s.wg.Done()
	n := s.fab.Node(id)
	defer n.AbsorbCrash() // heartbeat freezes exactly at the crash
	seen := make(map[uint64]probe)
	tick := time.NewTicker(s.cfg.ReclaimTick)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		n.Add64(s.beatG(id), 1)
		if n.AtomicLoad64(s.submittedG()) == n.AtomicLoad64(s.completedG()) {
			continue // nothing in flight anywhere
		}
		for i := uint64(0); i < s.cfg.TableCap; i++ {
			w := slotWord(n.AtomicLoad64(s.stateG(i)))
			if w.State() != stRunning {
				delete(seen, i)
				continue
			}
			owner := w.Owner()
			if owner == id {
				delete(seen, i) // our own lease; we just renewed it
				continue
			}
			hb := n.AtomicLoad64(s.beatG(owner))
			pr, ok := seen[i]
			if !ok || pr.w != w || pr.hb != hb {
				seen[i] = probe{w: w, hb: hb}
				continue
			}
			pr.strikes++
			if pr.strikes < s.cfg.ProbeRounds {
				seen[i] = pr
				continue
			}
			delete(seen, i)
			s.reclaim(n, id, i, w)
		}
	}
}

// reclaim re-queues slot i after its owner's lease expired: the task is
// re-assigned to this node, its attempt bumped, and its enqueue clock
// restarted so RedispatchHist measures crash-to-restart latency.
func (s *Scheduler) reclaim(n *fabric.Node, id int, i uint64, w slotWord) {
	owner := w.Owner()
	held := ds.PackState(w.Gen(), w.Aux()+1, id, stInit)
	if !n.CAS64(s.stateG(i), uint64(w), uint64(held)) {
		return // the owner finished after all, or another keeper won
	}
	route := n.AtomicLoad64(s.routeG(i))
	n.AtomicStore64(s.routeG(i), packRoute(id, routePreferred(route)))
	n.AtomicStore64(s.enqG(i), nowNS())
	n.Add64(s.loadG(owner), ^uint64(0))
	n.Add64(s.loadG(id), 1)
	n.Add64(s.queuedG(), 1)
	n.AtomicStore64(s.stateG(i), uint64(ds.PackState(w.Gen(), w.Aux()+1, 0, stQueued)))
	s.reclaimed.Add(1)
	if owner >= 0 && owner < len(s.nodeLeaseExp) {
		s.nodeLeaseExp[owner].Add(1)
	}
	if tw := s.tw(id); tw != nil {
		tw.Emit(trace.SubSched, trace.KLeaseExpiry, 0, i, uint64(owner))
	}
	s.noteReclaim(n, id, i, owner, w.Aux()+1)
	s.announce(n, id, i)
}
