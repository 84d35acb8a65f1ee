package fabric

import (
	"sync"
	"testing"
	"time"
)

// releaseAt installs a hook on n that calls release at n's k-th failed
// poll, before the poll after it.
func releaseAt(n *Node, k int, release func()) {
	polls := 0
	n.SetOpHook(func(kind OpKind, _, _ uint64) {
		if kind == OpAwait {
			if polls++; polls == k {
				release()
			}
		}
	})
}

func TestAwaitFastPathOpensNoRecord(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, Latency: DefaultLatency()})
	n := f.Node(0)
	g := f.Reserve(LineSize, LineSize)
	n.AtomicStore64(g, 1)
	hooks := 0
	n.SetOpHook(func(OpKind, uint64, uint64) { hooks++ })
	before := n.VirtualNS()
	n.Await(Wait{Site: "test.ready", Word: g}, func() (uint64, bool) {
		if len(n.Waits()) != 0 {
			t.Error("a record is open before any poll failed")
		}
		v := n.AtomicLoad64(g)
		return v, v == 1
	})
	if got, want := n.VirtualNS()-before, uint64(DefaultLatency().AtomicNS+DefaultLatency().HopNS); got != want {
		t.Errorf("one successful poll charged %d ns, want one atomic's %d", got, want)
	}
	if hooks != 0 || len(n.Waits()) != 0 {
		t.Errorf("fast path: %d hook events, %d open records; want none", hooks, len(n.Waits()))
	}
}

func TestAwaitAllocatesNothingOnTheFastPath(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1})
	n := f.Node(0)
	g := f.Reserve(LineSize, LineSize)
	n.AtomicStore64(g, 7)
	allocs := testing.AllocsPerRun(100, func() {
		n.Await(Wait{Site: "test.ready", Word: g, Arg: 3}, func() (uint64, bool) {
			v := n.AtomicLoad64(g)
			return v, v == 7
		})
	})
	if allocs != 0 {
		t.Fatalf("Await with a ready word allocates %v times, want 0", allocs)
	}
}

// TestAwaitRecordsEachFailedPoll scripts k failed polls: the record opens
// at the first, is the same record at every later one, tracks the last
// value, and closes on return; the wait charges exactly the polls'
// atomics.
func TestAwaitRecordsEachFailedPoll(t *testing.T) {
	const k = 5
	f := New(Config{GlobalSize: 1 << 20, Nodes: 2, Latency: DefaultLatency()})
	n, other := f.Node(0), f.Node(1)
	g := f.Reserve(LineSize, LineSize)
	w := Wait{Site: "test.word", Word: g, Arg: 42}
	var seen []*WaitRecord
	var lasts []uint64
	polls := 0
	n.SetOpHook(func(kind OpKind, word, last uint64) {
		if kind != OpAwait {
			return
		}
		polls++
		if GPtr(word) != g || last != uint64(polls) {
			t.Errorf("OpAwait %d: word %v last %d, want %v and %d", polls, GPtr(word), last, g, polls)
		}
		for _, r := range n.Waits() {
			seen, lasts = append(seen, r), append(lasts, r.Last.Load())
		}
		if polls == k {
			other.AtomicStore64(g, 100)
		}
	})
	start := n.VirtualNS()
	calls := 0
	n.Await(w, func() (uint64, bool) {
		calls++
		v := n.AtomicLoad64(g)
		if v != 100 {
			other.AtomicStore64(g, v+1) // the next poll sees a new value
		}
		return v + 1, v == 100
	})
	n.SetOpHook(nil)
	if calls != k+1 || len(seen) != k {
		t.Fatalf("%d polls and %d records seen, want %d and %d", calls, len(seen), k+1, k)
	}
	for i, r := range seen {
		if r != seen[0] || r.Wait != w || r.Node != 0 || lasts[i] != uint64(i+1) || r.StartNS != start+uint64(DefaultLatency().AtomicNS+DefaultLatency().HopNS) {
			t.Errorf("record at failed poll %d = %v (last %d)", i+1, r, lasts[i])
		}
	}
	if len(n.Waits()) != 0 {
		t.Fatalf("record still open after Await returned: %v", n.Waits())
	}
	if got, want := n.VirtualNS()-start, uint64((k+1)*(DefaultLatency().AtomicNS+DefaultLatency().HopNS)); got != want {
		t.Fatalf("wait charged %d ns, want %d: the polls' atomics and nothing else", got, want)
	}
}

// TestAwaitRecordClearsWhenACrashUnwindsIt: the waiter's next poll on the
// crashed node panics, and the record goes with it.
func TestAwaitRecordClearsWhenACrashUnwindsIt(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1})
	n := f.Node(0)
	g := f.Reserve(LineSize, LineSize)
	open := make(chan struct{})
	var once sync.Once
	releaseAt(n, 1, func() { once.Do(func() { close(open) }) })
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		n.Await(Wait{Site: "test.never", Word: g}, func() (uint64, bool) {
			return n.AtomicLoad64(g), false
		})
	}()
	<-open
	if w := n.Waits(); len(w) != 1 || w[0].Site != "test.never" {
		t.Fatalf("open waits = %v, want the one record", w)
	}
	n.Crash()
	if r := <-done; r != any(CrashedError{Node: 0}) {
		t.Fatalf("waiter ended with %v, want the crash", r)
	}
	if w := n.Waits(); len(w) != 0 {
		t.Fatalf("record survived the crash that unwound it: %v", w)
	}
}

// TestRestartEmptiesTheWaitTable: a waiter whose polls issue no fabric
// op is not unwound by a crash, but the restarted node's table starts
// empty, and the old waiter's later polls and return do not touch it.
func TestRestartEmptiesTheWaitTable(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1})
	n := f.Node(0)
	var mu sync.Mutex
	released := false
	ready := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return released
	}
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		n.Await(Wait{Site: "test.host"}, func() (uint64, bool) { return 0, ready() })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(n.Waits()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the waiter's record never opened")
		}
		time.Sleep(time.Millisecond)
	}
	n.Crash()
	n.Restart()
	if w := n.Waits(); len(w) != 0 {
		t.Fatalf("restarted node's table holds %v, want it empty", w)
	}
	// A wait of the new incarnation takes the slot the old one held.
	g := f.Reserve(LineSize, LineSize)
	fresh := make(chan struct{})
	go func() {
		defer close(fresh)
		n.Await(Wait{Site: "test.fresh", Word: g}, func() (uint64, bool) {
			v := n.AtomicLoad64(g)
			return v, v == 1
		})
	}()
	for len(n.Waits()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the new waiter's record never opened")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	released = true
	mu.Unlock()
	<-returned
	if w := n.Waits(); len(w) != 1 || w[0].Site != "test.fresh" {
		t.Fatalf("after the old waiter returned the table holds %v, want only the new record", w)
	}
	n.AtomicStore64(g, 1)
	<-fresh
	if w := n.Waits(); len(w) != 0 {
		t.Fatalf("table holds %v after both waits returned", w)
	}
}
