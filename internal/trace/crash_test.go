package trace

import (
	"sync"
	"sync/atomic"
	"testing"

	"flacos/internal/fabric"
)

// TestCrashBetweenComposeAndPublish kills the node in the window after
// an event's line is composed in the node's cache but before the
// write-back publishes it: that write-back is lost, then the node dies.
// The event must vanish cleanly: everything emitted earlier survives,
// nothing torn appears.
func TestCrashBetweenComposeAndPublish(t *testing.T) {
	f := testFabric(t, 2)
	r := New(f, Config{RingCap: 64})
	w := r.Writer(1)

	const crashAt = 10
	for i := uint64(0); i < crashAt; i++ {
		w.Emit(SubSched, KDispatch, 0, i, i)
	}
	f.Faults().SetDropWriteBackRate(1_000_000) // the next publish never reaches home
	w.Emit(SubSched, KDispatch, 0, crashAt, crashAt)
	f.Faults().SetDropWriteBackRate(0)
	f.Node(1).Crash()

	rt := r.Collector().Snapshot(f.Node(0))
	var got []Event
	for _, ev := range rt.Events {
		if ev.Node == 1 {
			got = append(got, ev)
		}
	}
	if len(got) != crashAt {
		t.Fatalf("recovered %d events, want exactly the %d published pre-crash", len(got), crashAt)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i) || ev.Arg0 != uint64(i) || ev.Sub != SubSched || ev.Kind != KDispatch {
			t.Fatalf("event %d torn or out of range: %v", i, ev)
		}
	}
	if s := rt.TotalSkipped(); s != 0 {
		t.Fatalf("collector skipped %d slots; the half-written record must look unpublished, not corrupt", s)
	}
}

// TestHammerWhileSnapshotting drives one node's writer from several
// goroutines while a collector on another node snapshots continuously,
// then crashes the writer node mid-storm. No snapshot — during the
// storm, across the crash, or after — may contain a torn or
// out-of-range event.
func TestHammerWhileSnapshotting(t *testing.T) {
	const (
		emitters  = 4
		perEmit   = 2000
		total     = emitters * perEmit
		crashTick = total / 2
	)
	f := fabric.New(fabric.Config{
		GlobalSize:         16 << 20,
		Nodes:              2,
		CacheCapacityLines: -1,
	})
	r := New(f, Config{RingCap: 16384}) // > total: drops impossible
	w := r.Writer(1)
	c := r.Collector()

	// checkSnap validates one observation of node 1's ring.
	checkSnap := func(ns NodeSnapshot) {
		seen := make(map[uint64]bool, len(ns.Events))
		for _, ev := range ns.Events {
			if ev.Sub != SubApp || ev.Kind != KMark || int(ev.Node) != 1 {
				t.Errorf("foreign/torn event in ring: %v", ev)
			}
			// Each emitter g writes arg0 = g*perEmit + i with arg1 = arg0^magic.
			if ev.Arg0 >= total || ev.Arg1 != ev.Arg0^0xabcdef {
				t.Errorf("torn operands: %v", ev)
			}
			if seen[ev.Seq] {
				t.Errorf("duplicate ticket %d in one snapshot", ev.Seq)
			}
			seen[ev.Seq] = true
		}
	}

	var emittedTotal atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() { recover() }() // die with the node
			for i := 0; i < perEmit; i++ {
				arg0 := uint64(g*perEmit + i)
				w.Emit(SubApp, KMark, 0, arg0, arg0^0xabcdef)
				emittedTotal.Add(1)
			}
		}(g)
	}

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkSnap(c.SnapshotNode(f.Node(0), 1))
		}
	}()

	// Crash node 1 mid-storm, then let the dust settle.
	for emittedTotal.Load() < crashTick {
	}
	f.Node(1).Crash()
	wg.Wait()
	close(stop)
	snapWG.Wait()

	final := c.SnapshotNode(f.Node(0), 1)
	checkSnap(final)
	if len(final.Events) == 0 {
		t.Fatal("no events survived the crash")
	}
	if final.Dropped != 0 {
		t.Fatalf("ring dropped %d events with cap > total", final.Dropped)
	}
	// At most `emitters` tickets were in flight (composed but not yet
	// written back) when the node died; everything else that was claimed
	// must have been recovered.
	claimed := emittedTotal.Load()
	if uint64(len(final.Events))+emitters < claimed {
		t.Fatalf("recovered %d of %d completed emits; published events were lost", len(final.Events), claimed)
	}
}
