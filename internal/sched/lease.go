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
// Reclaim is one CAS that re-queues the task on the reclaiming node; the
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
		if s.boardIdle(n) {
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

// boardIdle reports whether the load board sums to zero. The board only
// ever over-counts, so a zero sum means no slot is Queued or Running.
func (s *Scheduler) boardIdle(n *fabric.Node) bool {
	var sum uint64
	for id := 0; id < s.fab.NumNodes(); id++ {
		sum += n.AtomicLoad64(s.loadG(id))
	}
	return sum == 0
}

// reclaim re-queues slot i after its owner's lease expired, in one CAS
// Running(gen, a, owner) -> Queued(gen, a+1, id): the task is assigned to
// this node, its attempt bumped, and its enqueue clock restarted so
// RedispatchHist measures crash-to-restart latency. The hints count the
// re-queued task before the CAS and the owner's load comes off after it.
// It reports whether its CAS won.
func (s *Scheduler) reclaim(n *fabric.Node, id int, i uint64, w slotWord) bool {
	owner := w.Owner()
	n.Add64(s.loadG(id), 1)
	n.Add64(s.queuedG, 1)
	n.AtomicStore64(s.enqG(i), nowNS())
	if !n.CAS64(s.stateG(i), uint64(w), uint64(ds.PackState(w.Gen(), w.Aux()+1, id, stQueued))) {
		// The owner finished after all, or another keeper won.
		n.Add64(s.loadG(id), ^uint64(0))
		n.Add64(s.queuedG, ^uint64(0))
		return false
	}
	n.Add64(s.loadG(owner), ^uint64(0))
	s.reclaimed.Add(1)
	if tw := s.tw(id); tw != nil {
		tw.Emit(trace.SubSched, trace.KLeaseExpiry, 0, i, uint64(owner))
	}
	s.announce(n, id, i)
	return true
}
