package sched

import (
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// The tests in this file stand in for node 1's CPU with explicit CASes on
// the task's state word, then crash node 1, so each one lands a crash at
// an exact point of the slot protocol. The slot word is the task's only
// record: whatever the crash cuts off after a won CAS must not change what
// Drain and StatsFrom read.

// claimAs wins h's claim CAS on behalf of node n, as its worker would,
// and returns the Running word it installed.
func claimAs(t *testing.T, s *Scheduler, n *fabric.Node, h Handle) slotWord {
	t.Helper()
	queued := slotWord(n.AtomicLoad64(s.stateG(h.Slot)))
	if queued.State() != stQueued || queued.Gen() != h.Gen {
		t.Fatalf("slot before the claim: state %d gen %d, want Queued gen %d", queued.State(), queued.Gen(), h.Gen)
	}
	running := ds.PackState(queued.Gen(), queued.Aux(), n.ID(), stRunning)
	if !n.CAS64(s.stateG(h.Slot), uint64(queued), uint64(running)) {
		t.Fatal("claim CAS lost with no other claimer")
	}
	return running
}

// A runner frees its slot and its node dies before any further op: the
// free is the completion, so Drain returns and the counts agree.
func TestDrainAfterRunnerDiesPastCompletion(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2})
	s := New(f, Config{TableCap: 8})
	// No Start(): node 1's CPU is the test.
	fn := s.Register(func(*fabric.Node, uint64, uint64) {})
	n0, n1 := f.Node(0), f.Node(1)
	h := s.Submit(n0, Task{Fn: fn, Preferred: 1})

	running := claimAs(t, s, n1, h)
	if !n1.CAS64(s.stateG(h.Slot), uint64(running), uint64(ds.PackState(h.Gen+1, 0, 0, stFree))) {
		t.Fatal("completion CAS lost")
	}
	n1.Crash()

	stop := time.AfterFunc(time.Second, s.Stop)
	defer stop.Stop()
	if !s.Drain(n0) {
		t.Fatalf("Drain did not return within 1 s of the slot being freed: %+v", s.StatsFrom(n0))
	}
	if st := s.StatsFrom(n0); st.Submitted != 1 || st.Completed != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 1 submitted, 1 completed, 0 queued", st)
	}
}

// A claimer wins its claim CAS and its node dies before any further op:
// node 0's keeper reclaims the lease, node 0 re-runs the task, and the
// table reads nothing queued and one completion.
func TestClaimerDiesAfterClaimCAS(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2})
	s := New(f, Config{
		TableCap: 8, ProbeRounds: 2,
		ReclaimTick: 100 * time.Microsecond, IdleTick: 100 * time.Microsecond,
	})
	fn := s.Register(func(*fabric.Node, uint64, uint64) {})
	cell := f.Reserve(fabric.LineSize, fabric.LineSize)
	n0, n1 := f.Node(0), f.Node(1)
	h := s.Submit(n0, Task{Fn: fn, Preferred: 1, DoneCell: cell})

	claimAs(t, s, n1, h)
	n1.Crash()
	s.Start()
	defer s.Stop()

	// The DoneCell is incremented after the completion CAS, so it is the
	// last sign of the re-run.
	deadline := time.Now().Add(5 * time.Second)
	for n0.AtomicLoad64(cell) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("task never re-ran after its claimer died: %+v", s.StatsFrom(n0))
		}
		time.Sleep(50 * time.Microsecond)
	}
	st := s.StatsFrom(n0)
	if st.Queued != 0 || st.Completed != 1 || st.Submitted != 1 || st.Reclaimed != 1 {
		t.Fatalf("stats = %+v, want 0 queued, 1 completed of 1 submitted, 1 reclaimed", st)
	}
	if got := n0.AtomicLoad64(cell); got != 1 {
		t.Fatalf("DoneCell = %d, want 1", got)
	}
}
