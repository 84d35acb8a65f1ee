package sched

import (
	"testing"
	"time"

	"flacos/internal/fabric"
)

func testFabric(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: nodes, CacheCapacityLines: -1})
}

func testSched(t *testing.T, f *fabric.Fabric, cfg Config) *Scheduler {
	t.Helper()
	s := New(f, cfg)
	t.Cleanup(s.Stop)
	return s
}

// cells reserves count completion cells and returns their base.
func cells(f *fabric.Fabric, count uint64) fabric.GPtr {
	return f.Reserve(count*8, fabric.LineSize)
}

func TestSubmitCompletesEverywhere(t *testing.T) {
	f := testFabric(3)
	s := testSched(t, f, Config{})
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(arg0), arg1)
	})
	s.Start()

	sum := f.Reserve(8, 8)
	base := cells(f, 64)
	n0 := f.Node(0)
	var hs []Handle
	for i := uint64(0); i < 64; i++ {
		hs = append(hs, s.Submit(n0, Task{
			Fn: fn, Arg0: uint64(sum), Arg1: i,
			Preferred: int(i % 3), DoneCell: base.Add(i * 8),
		}))
	}
	for _, h := range hs {
		if !s.Wait(n0, h) {
			t.Fatal("Wait aborted")
		}
	}
	if got := n0.AtomicLoad64(sum); got != 64*63/2 {
		t.Fatalf("sum = %d, want %d", got, 64*63/2)
	}
	for i := uint64(0); i < 64; i++ {
		if c := n0.AtomicLoad64(base.Add(i * 8)); c != 1 {
			t.Fatalf("task %d completion cell = %d, want 1", i, c)
		}
	}
	st := s.StatsFrom(n0)
	if st.Submitted != 64 || st.Completed != 64 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalityPlacementRunsOnPreferredNode(t *testing.T) {
	f := testFabric(3)
	// A long steal grace makes the run deterministic: worker-goroutine
	// startup (hundreds of µs) must not let an idle node outrun the
	// preferred node's claim.
	s := testSched(t, f, Config{Policy: PolicyLocality, StealGrace: 100 * time.Millisecond})
	ranOn := f.Reserve(8*64, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.AtomicStore64(fabric.GPtr(arg0).Add(arg1*8), uint64(n.ID())+1)
	})
	s.Start()

	n0 := f.Node(0)
	for i := 0; i < 12; i++ {
		pref := i % 3
		h := s.Submit(n0, Task{Fn: fn, Arg0: uint64(ranOn), Arg1: uint64(i), Preferred: pref})
		s.Wait(n0, h)
		// An idle rack with zero load always honors the preference.
		if got := n0.AtomicLoad64(ranOn.Add(uint64(i) * 8)); got != uint64(pref)+1 {
			t.Fatalf("task %d ran on node %d, want %d", i, got-1, pref)
		}
	}
}

func TestWorkStealingRebalances(t *testing.T) {
	f := testFabric(4)
	// Huge slack pins every task's target to node 0; the other three
	// nodes can only get work by stealing through the global table.
	s := testSched(t, f, Config{Policy: PolicyLocality, LocalitySlack: 1 << 40, IdleTick: 100 * time.Microsecond})
	perNode := f.Reserve(8*8, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(arg0).Add(uint64(n.ID())*8), 1)
		time.Sleep(200 * time.Microsecond) // long enough that one node can't drain alone
	})
	s.Start()

	n0 := f.Node(0)
	const tasks = 96
	for i := 0; i < tasks; i++ {
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(perNode), Preferred: 0})
	}
	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	st := s.StatsFrom(n0)
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d", st.Completed, tasks)
	}
	// Every task was assigned node 0, so a task run elsewhere was stolen.
	others := uint64(0)
	for id := 1; id < 4; id++ {
		others += n0.AtomicLoad64(perNode.Add(uint64(id) * 8))
	}
	if others == 0 {
		t.Fatal("no task was stolen despite a single overloaded target")
	}
}

func TestCrashReclaimExactlyOnce(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40,
		ProbeRounds: 3, ReclaimTick: 100 * time.Microsecond, IdleTick: 100 * time.Microsecond,
	})
	const tasks = 24
	base := cells(f, tasks)
	started := f.Reserve(8*2, fabric.LineSize) // per-node start counters
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(started).Add(uint64(n.ID())*8), 1)
		time.Sleep(300 * time.Microsecond)
		n.Load64(fabric.GPtr(arg0)) // touch the fabric so a dead CPU dies here
	})
	s.Start()

	n0 := f.Node(0)
	for i := uint64(0); i < tasks; i++ {
		// Everything targets node 1, which is about to die.
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(base), Preferred: 1, DoneCell: base.Add(i * 8)})
	}
	// Wait until node 1 specifically has tasks in flight, then kill it:
	// the sleeping runners die mid-task and their leases must expire.
	for n0.AtomicLoad64(started.Add(8)) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	f.Node(1).Crash()

	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	st := s.StatsFrom(n0)
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d after crash", st.Completed, tasks)
	}
	if st.Reclaimed == 0 {
		t.Fatal("crash left in-flight tasks but nothing was reclaimed")
	}
	for i := uint64(0); i < tasks; i++ {
		if c := n0.AtomicLoad64(base.Add(i * 8)); c != 1 {
			t.Fatalf("task %d completed %d times, want exactly once", i, c)
		}
	}
	if s.RedispatchHist().Mean() == 0 { // a re-dispatch takes time: zero means no sample
		t.Fatal("reclaimed tasks recorded no re-dispatch latency")
	}
}

func TestPickNodeSkipsCrashedAndAddsLoad(t *testing.T) {
	f := testFabric(3)
	s := testSched(t, f, Config{})
	// Not started: the board is all zeros.
	if got := s.PickNode([]int{5, 0, 3}); got != 1 {
		t.Fatalf("PickNode = %d, want 1 (least dense)", got)
	}
	f.Node(1).Crash()
	if got := s.PickNode([]int{5, 0, 3}); got != 2 {
		t.Fatalf("PickNode = %d, want 2 (node 1 is down)", got)
	}
}

func TestBoundedTableBlocksThenRecovers(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{TableCap: 8})
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		time.Sleep(50 * time.Microsecond)
	})
	s.Start()
	n0 := f.Node(0)
	for i := 0; i < 64; i++ { // 8x the table size: Submit must recycle slots
		s.Submit(n0, Task{Fn: fn})
	}
	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	if st := s.StatsFrom(n0); st.Completed != 64 {
		t.Fatalf("completed %d of 64 through an 8-slot table", st.Completed)
	}
}

// TestTaskFabricBudget pins what one task costs the fabric on an unstarted
// two-node scheduler: node 0 submits a task preferring node 1, and node 1
// claims, runs and completes it. Each side is pinned as its whole atomic
// count and virtual time, so a word a step writes that nobody reads shows
// up here as an atomic.
func TestTaskFabricBudget(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	s := New(f, Config{TableCap: 8})
	// No Start(): node 1's claim is the test.
	fn := s.Register(func(*fabric.Node, uint64, uint64) {})
	n0, n1 := f.Node(0), f.Node(1)

	before0, before1 := n0.Stats(), n1.Stats()
	h := s.Submit(n0, Task{Fn: fn, Preferred: 1})
	if d := n0.Stats().Delta(before0); d.Atomics != 18 || d.VirtualNS != 13300 {
		t.Errorf("Submit: %d atomics, %d sim_ns; want 18 and 13300", d.Atomics, d.VirtualNS)
	}
	if d := n1.Stats().Delta(before1); d != (fabric.NodeStatsSnapshot{}) {
		t.Errorf("Submit charged node 1 %+v", d)
	}

	before0 = n0.Stats()
	if !s.claimAndRun(n1, 1, h.Slot) {
		t.Fatal("node 1 lost the claim with no other claimer")
	}
	if d := n1.Stats().Delta(before1); d.Atomics != 10 || d.VirtualNS != 6800 {
		t.Errorf("claim and completion: %d atomics, %d sim_ns; want 10 and 6800", d.Atomics, d.VirtualNS)
	}
	if d := n0.Stats().Delta(before0); d != (fabric.NodeStatsSnapshot{}) {
		t.Errorf("node 1's claim charged node 0 %+v", d)
	}
	if st := s.StatsFrom(n0); st.Submitted != 1 || st.Completed != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 1 submitted, 1 completed, 0 queued", st)
	}
}
