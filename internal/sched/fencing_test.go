package sched

import (
	"sync"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// Zombie fencing, deterministically: a node the rack declared Dead is
// still executing a task when ReclaimNode (the membership Dead hook)
// sweeps its leases. The attempt bump must fence the zombie's
// completion CAS so the re-dispatched attempt is the only one that
// counts — exactly-once even though both incarnations run to the end.
func TestReclaimNodeFencesZombieCompletion(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2})
	s := New(f, Config{})
	// No Start(): every claim in this test is explicit, so the interleaving
	// is exact, not scheduled.

	release := make(chan struct{})
	running := make(chan struct{})
	var mu sync.Mutex
	runs := 0
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		mu.Lock()
		runs++
		first := runs == 1
		mu.Unlock()
		if first {
			close(running)
			<-release // the zombie hangs here across its own death
		}
	})

	n0, n1 := f.Node(0), f.Node(1)
	cell := f.Reserve(fabric.LineSize, fabric.LineSize)
	h := s.Submit(n0, Task{Fn: fn, Preferred: 1, DoneCell: cell})

	// Node 1 claims and starts running (the pre-death incarnation).
	var zombieDone sync.WaitGroup
	zombieDone.Add(1)
	go func() {
		defer zombieDone.Done()
		if !s.claimAndRun(n1, 1, h.Slot) {
			t.Error("node 1 failed to claim its own preferred task")
		}
	}()
	<-running

	// The rack declares node 1 dead: membership's hook sweeps its leases.
	if got := s.ReclaimNode(n0, 1); got != 1 {
		t.Fatalf("ReclaimNode reclaimed %d tasks, want 1", got)
	}
	// Idempotent: nothing left Running under the dead owner.
	if got := s.ReclaimNode(n0, 1); got != 0 {
		t.Fatalf("second ReclaimNode reclaimed %d tasks, want 0", got)
	}

	// Node 0 re-claims and completes the bumped attempt.
	if !s.claimAndRun(n0, 0, h.Slot) {
		t.Fatal("node 0 failed to claim the reclaimed task")
	}

	// Now let the zombie finish: its completion CAS carries the stale
	// (gen, attempt, owner) word and must fail.
	close(release)
	zombieDone.Wait()

	if got := n0.AtomicLoad64(cell); got != 1 {
		t.Fatalf("done cell = %d, want exactly 1 (zombie completion leaked through)", got)
	}
	st := s.StatsFrom(n0)
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1", st.Completed)
	}
	if st.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", st.Reclaimed)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 2 {
		t.Fatalf("function ran %d times, want 2 (both incarnations execute; one counts)", runs)
	}
}

// SetLiveness must steer placement away from a node the membership
// layer declared dead even though the fabric node itself is up (the
// false-positive / slow-node case): a zombie must not receive work.
func TestLivenessOracleSteersPlacement(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 3})
	s := New(f, Config{})
	dead := map[int]bool{1: true}
	s.SetLiveness(func(id int) bool { return !dead[id] })

	n0 := f.Node(0)
	for i := 0; i < 8; i++ {
		if got := s.target(n0, 1); got == 1 {
			t.Fatalf("placement %d chose declared-dead node 1", i)
		}
	}
	if s.PickNode([]int{0, 0, 0}) == 1 {
		t.Fatal("PickNode chose declared-dead node 1")
	}
	// Clearing the oracle restores crash-check-only placement.
	s.SetLiveness(nil)
	if got := s.target(n0, 1); got != 1 {
		t.Fatalf("with oracle cleared, preferred live node 1 should win placement, got %d", got)
	}
}

// SetNodeServing gates a hot-plugging node's pull paths; placement must
// skip it until it activates and starts serving.
func TestNodeServingGatePlacement(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2})
	s := New(f, Config{})
	s.SetNodeServing(1, false)
	n0 := f.Node(0)
	if got := s.target(n0, 1); got == 1 {
		t.Fatal("placement chose gated (joining) node 1")
	}
	s.SetNodeServing(1, true)
	if got := s.target(n0, 1); got != 1 {
		t.Fatalf("after serving gate lifted, preferred node 1 should win, got %d", got)
	}
}

// The same gate in the worker loop of a started scheduler: while node 1
// is not serving, its workers claim nothing — not the tasks preferring
// it, not by stealing — even while node 0's only worker is busy and the
// table holds queued work. Once the gate opens, a task preferred at
// node 1 runs there. The keeper never probes (ReclaimTick): a lease
// expiry would re-queue the held task on node 1's keeper, and node 0
// taking it back would count as a steal.
func TestNodeServingGateStopsWorkers(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{
		WorkersPerNode: 1, IdleTick: 100 * time.Microsecond,
		StealGrace: time.Hour, ReclaimTick: time.Hour,
	})
	rec := trace.New(f, trace.Config{RingCap: 1 << 10})
	s.SetTrace(rec)
	ranOn := f.Reserve(8*16, fabric.LineSize)
	release := make(chan struct{})
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		if arg1 == 0 {
			<-release // hold node 0's only worker
		}
		n.AtomicStore64(fabric.GPtr(arg0).Add(arg1*8), uint64(n.ID())+1)
	})
	s.SetNodeServing(1, false)
	s.Start()

	n0 := f.Node(0)
	const gated = 8
	var hs []Handle
	for i := uint64(0); i < gated; i++ {
		hs = append(hs, s.Submit(n0, Task{Fn: fn, Arg0: uint64(ranOn), Arg1: i, Preferred: 1}))
	}
	// Many idle ticks: an ungated node 1 would have claimed the queued
	// tasks that prefer it by now.
	time.Sleep(50 * time.Millisecond)
	close(release)
	for _, h := range hs {
		if !s.Wait(n0, h) {
			t.Fatal("Wait aborted")
		}
	}
	for i := uint64(0); i < gated; i++ {
		if got := n0.AtomicLoad64(ranOn.Add(i * 8)); got != 1 {
			t.Fatalf("gated phase: task %d ran on node %d, want 0", i, int(got)-1)
		}
	}
	if steals := stealEvents(rec, n0); len(steals) != 0 {
		t.Fatalf("gated phase: %d steals, want 0", len(steals))
	}

	s.SetNodeServing(1, true)
	h := s.Submit(n0, Task{Fn: fn, Arg0: uint64(ranOn), Arg1: gated, Preferred: 1})
	if !s.Wait(n0, h) {
		t.Fatal("Wait aborted")
	}
	if got := n0.AtomicLoad64(ranOn.Add(gated * 8)); got != 2 {
		t.Fatalf("open gate: task preferred at node 1 ran on node %d", int(got)-1)
	}
}

// A node gated while its worker is past the worker loop's serving check
// still claims nothing queued after the gate: claimAndRun checks the gate
// after it loads the Queued word. The unstarted scheduler's direct call
// stands in for that worker.
func TestNodeServingGateStopsAClaimInFlight(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2})
	s := New(f, Config{TableCap: 8})
	ran := false
	fn := s.Register(func(*fabric.Node, uint64, uint64) { ran = true })
	s.SetNodeServing(1, false)
	n0, n1 := f.Node(0), f.Node(1)
	h := s.Submit(n0, Task{Fn: fn, Preferred: 1})

	if s.claimAndRun(n1, 1, h.Slot) {
		t.Fatal("gated node 1 claimed a task queued after its gate closed")
	}
	if ran {
		t.Fatal("gated node 1 ran the task")
	}
	if w := slotWord(n0.AtomicLoad64(s.stateG(h.Slot))); w.State() != stQueued || w.Gen() != h.Gen {
		t.Fatalf("slot after the refused claim: state %d gen %d, want Queued gen %d", w.State(), w.Gen(), h.Gen)
	}
}
