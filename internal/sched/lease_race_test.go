package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// TestLeaseExpiryRacesLateCompletion drives the exact interleaving the
// attempt-bump fence exists for, deterministically: a runner claims a
// task and stalls mid-execution; a keeper declares the lease expired and
// re-queues the task (attempt+1); the re-dispatched attempt completes;
// and only THEN does the original runner wake up and try to publish its
// own completion. The stale CAS must fail: the DoneCell increments
// exactly once, the completed counter moves exactly once, and the trace
// timeline shows the full story — two dispatches, one lease expiry, one
// completion.
func TestLeaseExpiryRacesLateCompletion(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2, CacheCapacityLines: -1})
	rec := trace.New(f, trace.Config{RingCap: 1 << 10})
	// The real keepers must not fire: this test IS the keeper, calling
	// reclaim at the chosen moment.
	s := New(f, Config{
		TableCap:       8,
		WorkersPerNode: 2,
		ReclaimTick:    time.Hour,
		ProbeRounds:    1 << 30,
	})
	s.SetTrace(rec)

	var calls atomic.Int32
	block := make(chan struct{})     // holds the first attempt mid-task
	unblocked := make(chan struct{}) // the first attempt woke back up
	entered := make(chan uint64, 4)  // reports each attempt's entry
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		c := calls.Add(1)
		entered <- uint64(n.ID())
		if c == 1 {
			<-block // stall: the lease will expire out from under us
			close(unblocked)
		}
	})
	s.Start()
	defer s.Stop()

	cell := f.Reserve(fabric.LineSize, fabric.LineSize)
	sub := f.Node(0)
	h := s.Submit(sub, Task{Fn: fn, Arg0: 0, Preferred: 0, DoneCell: cell})

	// Wait until attempt 0 is inside the function, then freeze-frame its
	// state word: Running, attempt 0, whoever claimed it.
	<-entered
	w := slotWord(sub.AtomicLoad64(s.stateG(h.Slot)))
	if w.State() != stRunning || w.Aux() != 0 || w.Gen() != h.Gen {
		t.Fatalf("unexpected state word before reclaim: state=%d owner=%d attempt=%d gen=%d",
			w.State(), w.Owner(), w.Aux(), w.Gen())
	}
	owner := w.Owner()

	// The other node's "keeper" declares the lease expired while the
	// owner is in fact alive and mid-task — the false-suspicion case the
	// fence must survive.
	keeperID := 1 - owner
	s.reclaim(f.Node(keeperID), keeperID, h.Slot, w)
	if got := s.reclaimed.Load(); got != 1 {
		t.Fatalf("reclaim did not land (reclaimed=%d)", got)
	}

	// The re-queued attempt (attempt 1) runs to completion while the
	// original runner is still blocked.
	<-entered
	if !s.Wait(sub, h) {
		t.Fatal("Wait returned false")
	}
	if got := sub.AtomicLoad64(cell); got != 1 {
		t.Fatalf("DoneCell = %d after re-dispatched completion, want 1", got)
	}
	if done := s.StatsFrom(sub).Completed; done != 1 {
		t.Fatalf("completed counter = %d, want 1", done)
	}

	// Now release the stale runner. Its completion CAS carries the old
	// (gen, attempt 0) word; the attempt bump must fence it out. Hold the
	// assertion window open long enough for the stale CAS to have fired.
	close(block)
	<-unblocked
	for i := 0; i < 30; i++ {
		if got := sub.AtomicLoad64(cell); got != 1 {
			t.Fatalf("DoneCell = %d after stale runner woke, want 1 (double completion!)", got)
		}
		if got := s.StatsFrom(sub).Completed; got != 1 {
			t.Fatalf("completed counter = %d after stale runner woke, want 1", got)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.StatsFrom(sub); st.Reclaimed != 1 {
		t.Fatalf("Stats.Reclaimed = %d, want 1", st.Reclaimed)
	}
	// The flight recorder must tell the same story: two dispatches of the
	// slot (attempts 0 and 1), one lease expiry of any slot, naming this
	// slot and its old owner, and exactly one completion — the stale
	// attempt leaves no trace event.
	rt := rec.Collector().Snapshot(sub)
	var dispatches, expiries, completes int
	for _, ev := range rt.Events {
		if ev.Sub != trace.SubSched {
			continue
		}
		switch {
		case ev.Kind == trace.KLeaseExpiry:
			expiries++
			if ev.Arg0 != h.Slot || int(ev.Arg1) != owner {
				t.Fatalf("lease expiry of slot %d blames node %d, want slot %d and node %d", ev.Arg0, ev.Arg1, h.Slot, owner)
			}
			if int(ev.Node) != keeperID {
				t.Fatalf("lease expiry emitted by node %d, want keeper node %d", ev.Node, keeperID)
			}
		case ev.Arg0 != h.Slot: // another slot's dispatch or completion
		case ev.Kind == trace.KDispatch:
			dispatches++
		case ev.Kind == trace.KComplete:
			completes++
		}
	}
	if dispatches != 2 || expiries != 1 || completes != 1 {
		t.Fatalf("trace shows %d dispatches, %d expiries, %d completions; want 2, 1, 1\n%s",
			dispatches, expiries, completes, rt.TimelineTail())
	}
}
