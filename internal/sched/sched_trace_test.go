package sched

import (
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// TestTraceEventsOnHotPaths: with a recorder attached, every dispatched
// task leaves a Begin(KDispatch)/End(KComplete) pair on the worker
// node's ring, and a crash-driven reclaim leaves a KLeaseExpiry event
// that blames the crashed node.
func TestTraceEventsOnHotPaths(t *testing.T) {
	f := testFabric(2)
	rec := trace.New(f, trace.Config{RingCap: 1 << 12})
	s := testSched(t, f, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40,
		ProbeRounds: 3, ReclaimTick: 100 * time.Microsecond, IdleTick: 100 * time.Microsecond,
		StealGrace: 50 * time.Millisecond,
	})
	s.SetTrace(rec)
	const tasks = 8
	base := cells(f, tasks)
	started := f.Reserve(8, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(started), 1)
		time.Sleep(500 * time.Microsecond)
		n.Load64(fabric.GPtr(arg0))
	})
	s.Start()

	n0 := f.Node(0)
	for i := uint64(0); i < tasks; i++ {
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(base), Preferred: 1, DoneCell: base.Add(i * 8)})
	}
	for n0.AtomicLoad64(started) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	f.Node(1).Crash()
	deadline := time.Now().Add(10 * time.Second)
	for s.StatsFrom(n0).Reclaimed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reclaimer never fired")
		}
		time.Sleep(100 * time.Microsecond)
	}
	f.Node(1).Restart()
	s.RebootNode(1)
	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}

	snap := rec.Collector().Snapshot(n0)
	counts := map[trace.Kind]int{}
	blamedCrashed := false
	for _, e := range snap.Events {
		if e.Sub == trace.SubSched {
			counts[e.Kind]++
			// Under heavy instrumentation the keeper may also falsely
			// suspect a live node (the fence makes that benign), so only
			// require that at least one expiry blames the crashed node.
			blamedCrashed = blamedCrashed || e.Kind == trace.KLeaseExpiry && e.Arg1 == 1
		}
	}
	if counts[trace.KDispatch] < tasks {
		t.Errorf("dispatch events=%d, want >= %d", counts[trace.KDispatch], tasks)
	}
	if counts[trace.KComplete] != tasks {
		t.Errorf("complete events=%d, want exactly %d (completion is exactly-once)", counts[trace.KComplete], tasks)
	}
	if counts[trace.KLeaseExpiry] == 0 {
		t.Error("no lease-expiry event despite a reclaim")
	}
	if snap.TotalDropped() != 0 {
		t.Errorf("dropped %d events at ring cap %d", snap.TotalDropped(), 1<<12)
	}
	if !blamedCrashed {
		t.Error("no lease-expiry event blames crashed node n1")
	}
}

// TestTraceStealEvent: a task whose preferred node never claims it is
// stolen, and the thief's ring records the KSteal with the original
// assignee in arg1.
func TestTraceStealEvent(t *testing.T) {
	f := testFabric(2)
	rec := trace.New(f, trace.Config{RingCap: 1 << 10})
	s := testSched(t, f, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40, WorkersPerNode: 1,
		IdleTick: 100 * time.Microsecond, StealGrace: 1 * time.Microsecond,
	})
	s.SetTrace(rec)
	release := make(chan struct{})
	blocker := s.Register(func(n *fabric.Node, arg0, arg1 uint64) { <-release })
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {})
	s.Start()
	n0 := f.Node(0)
	// Pin node 1's only worker on a blocker, then queue work assigned to
	// node 1: with a tiny steal grace, node 0 must steal it.
	bh := s.Submit(n0, Task{Fn: blocker, Preferred: 1})
	for i := 0; i < 4; i++ {
		s.Submit(n0, Task{Fn: fn, Preferred: 1})
	}
	snapDeadline := time.Now().Add(10 * time.Second)
	for len(stealEvents(rec, n0)) == 0 && time.Now().Before(snapDeadline) {
		time.Sleep(100 * time.Microsecond) // past the deadline, the assertions below report
	}
	close(release)
	if !s.Wait(n0, bh) || !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	steals := stealEvents(rec, n0)
	for _, e := range steals {
		if e.Node != 0 || e.Arg1 != 1 {
			t.Errorf("steal event node=%d arg1=%d, want thief=0 assignee=1", e.Node, e.Arg1)
		}
	}
	if len(steals) == 0 {
		t.Error("no steal events recorded")
	}
}

// stealEvents returns the KSteal events on rec's rings, read through n: a
// claim by a node other than the task's assignee.
func stealEvents(rec *trace.Recorder, n *fabric.Node) []trace.Event {
	var steals []trace.Event
	for _, e := range rec.Collector().Snapshot(n).Events {
		if e.Sub == trace.SubSched && e.Kind == trace.KSteal {
			steals = append(steals, e)
		}
	}
	return steals
}
