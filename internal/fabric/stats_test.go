package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
)

func statsFabric(lat LatencyModel) *Fabric {
	return New(Config{GlobalSize: 1 << 20, Nodes: 2, CacheCapacityLines: -1, Latency: lat})
}

func TestStatsDelta(t *testing.T) {
	f := statsFabric(DefaultLatency())
	n := f.Node(0)
	g := f.Reserve(4*LineSize, LineSize)

	before := n.Stats()
	n.Load64(g)                 // miss
	n.Load64(g)                 // hit
	n.Store64(g.Add(8), 7)      // hit (line cached)
	n.Add64(g.Add(LineSize), 1) // atomic
	n.Fence()
	after := n.Stats()

	d := after.Delta(before)
	if d.Loads != 2 || d.Stores != 1 || d.Atomics != 1 || d.Fences != 1 {
		t.Errorf("delta loads=%d stores=%d atomics=%d fences=%d, want 2/1/1/1",
			d.Loads, d.Stores, d.Atomics, d.Fences)
	}
	if d.Misses != 1 || d.Hits != 2 {
		t.Errorf("delta misses=%d hits=%d, want 1/2", d.Misses, d.Hits)
	}
	if d.VirtualNS == 0 {
		t.Error("delta accrued no virtual time under an accounting model")
	}
	// A second delta against the later snapshot must be empty.
	if z := after.Delta(after); z != (NodeStatsSnapshot{}) {
		t.Errorf("self-delta not zero: %+v", z)
	}
}

func TestFaultsInjectedCountsDroppedWriteBacks(t *testing.T) {
	f := statsFabric(LatencyModel{})
	n := f.Node(0)
	g := f.Reserve(LineSize, LineSize)
	f.Faults().SetDropWriteBackRate(1_000_000) // drop everything
	n.Store64(g, 42)
	n.WriteBackRange(g, LineSize)
	f.Faults().SetDropWriteBackRate(0)
	if got := n.Stats().FaultsInjected; got != 1 {
		t.Errorf("FaultsInjected=%d after one dropped write-back, want 1", got)
	}
}

func TestOpHookFiresOnMissWriteBackFence(t *testing.T) {
	f := statsFabric(LatencyModel{})
	n := f.Node(0)
	g := f.Reserve(4*LineSize, LineSize)

	var miss, wbRanged, wbLines, fence atomic.Uint64
	n.SetOpHook(func(k OpKind, arg0, arg1 uint64) {
		switch k {
		case OpMiss:
			miss.Add(1)
		case OpWriteBackRange:
			wbRanged.Add(1)
			wbLines.Add(arg1)
			if first := g.Line(); arg0 != first {
				t.Errorf("ranged write-back arg0=%d, want first line %d", arg0, first)
			}
		case OpFence:
			fence.Add(1)
		}
	})
	n.Load64(g)                     // miss
	n.Load64(g)                     // hit: no event
	n.Store64(g, 1)                 // hit on the cached line
	n.Store64(g.Add(LineSize), 2)   // second miss: dirties a fresh line
	n.WriteBackRange(g, 2*LineSize) // ONE ranged event covering two lines
	n.WriteBackRange(g, 2*LineSize) // all clean now: no event at all
	n.Fence()
	n.Add64(g.Add(2*LineSize), 1) // atomics bypass the cache: no events
	if miss.Load() != 2 || wbRanged.Load() != 1 || wbLines.Load() != 2 || fence.Load() != 1 {
		t.Errorf("hook counts miss=%d ranged-wb=%d wb-lines=%d fence=%d, want 2/1/2/1",
			miss.Load(), wbRanged.Load(), wbLines.Load(), fence.Load())
	}

	n.SetOpHook(nil)
	n.Load64(g.Add(2 * LineSize)) // miss with hook removed
	if miss.Load() != 2 {
		t.Error("hook fired after removal")
	}
}

// TestOpHookEvictionStaysPerLine pins the one cache-path event that is
// still per-line: a capacity eviction's dirty-victim write-back happens on
// the access path, one line at a time, and keeps the legacy OpWriteBack
// kind so observers can tell evictions from explicit maintenance bursts.
func TestOpHookEvictionStaysPerLine(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: 2})
	n := f.Node(0)
	g := f.Reserve(8*LineSize, LineSize)

	var evict atomic.Uint64
	n.SetOpHook(func(k OpKind, arg0, arg1 uint64) {
		if k == OpWriteBack {
			if arg1 != 1 {
				t.Errorf("eviction write-back arg1=%d, want 1", arg1)
			}
			evict.Add(1)
		}
	})
	for i := uint64(0); i < 6; i++ { // dirty 6 lines through a 2-line cache
		n.Store64(g.Add(i*LineSize), i)
	}
	if evict.Load() == 0 {
		t.Error("capacity evictions fired no per-line OpWriteBack events")
	}
}

// TestStatsDeltaWraparound documents Delta's arithmetic: field-wise uint64
// subtraction, modular on wraparound. A snapshot taken BEFORE ResetStats
// used as prev against a post-reset snapshot yields huge modular values,
// not negatives or panics — experiments must order snapshots around
// resets, and this test pins the behavior they are ordering around.
func TestStatsDeltaWraparound(t *testing.T) {
	prev := NodeStatsSnapshot{Loads: ^uint64(0), VirtualNS: ^uint64(0) - 1}
	cur := NodeStatsSnapshot{Loads: 2, VirtualNS: 3}
	d := cur.Delta(prev)
	if d.Loads != 3 { // 2 - (2^64-1) mod 2^64 = 3
		t.Errorf("wrapped Loads delta = %d, want 3", d.Loads)
	}
	if d.VirtualNS != 5 { // 3 - (2^64-2) mod 2^64 = 5
		t.Errorf("wrapped VirtualNS delta = %d, want 5", d.VirtualNS)
	}
	// The fields Delta never touches stay zero.
	if d.Stores != 0 || d.Fences != 0 {
		t.Errorf("untouched fields nonzero: %+v", d)
	}

	// End-to-end: snapshot, reset, small traffic — the delta against the
	// pre-reset snapshot wraps modularly (cur - prev + 2^64).
	f := statsFabric(DefaultLatency())
	n := f.Node(0)
	g := f.Reserve(LineSize, LineSize)
	n.Load64(g)
	n.Load64(g)
	before := n.Stats()
	n.ResetStats()
	n.Load64(g)
	after := n.Stats()
	got := after.Delta(before)
	want := after.Loads - before.Loads // modular by Go's uint64 rules
	if got.Loads != want {
		t.Errorf("post-reset Loads delta = %d, want modular %d", got.Loads, want)
	}
}

// TestBulkAccountingConcurrentCPUs pins the bulk-transfer charge to the
// call that made it: two CPUs of one node, one streaming resident-line
// bulk Reads and one issuing fabric atomics, must leave the node's clock
// at exactly the sum of the two streams, and the clock never runs
// backwards between two samples.
func TestBulkAccountingConcurrentCPUs(t *testing.T) {
	f := statsFabric(DefaultLatency())
	n := f.Node(0)
	const lines, reads, adds = 4, 50000, 50000
	buf := make([]byte, lines*LineSize)
	g := f.Reserve(uint64(len(buf)), LineSize)
	ctr := f.Reserve(LineSize, LineSize)
	n.Read(g, buf) // make the lines resident: every measured Read is all hits

	before := n.Stats()
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < reads; i++ {
			n.Read(g, buf)
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < adds; i++ {
			n.Add64(ctr, 1)
		}
	}()
	var backwards int
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		last := n.VirtualNS()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if now := n.VirtualNS(); now < last {
				backwards++
			} else {
				last = now
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	<-sampled

	d := n.Stats().Delta(before)
	lat := f.lat
	want := uint64(reads*lines*lat.LocalNS + adds*(lat.AtomicNS+n.totalHops()*lat.HopNS))
	if d.VirtualNS != want {
		t.Errorf("node charged %d sim_ns, want %d (the sum of both streams): %.1f%% lost",
			d.VirtualNS, want, 100*(1-float64(d.VirtualNS)/float64(want)))
	}
	if d.Hits != reads*lines || d.Misses != 0 || d.Atomics != adds {
		t.Errorf("hits=%d misses=%d atomics=%d, want %d/0/%d", d.Hits, d.Misses, d.Atomics, reads*lines, adds)
	}
	if backwards != 0 {
		t.Errorf("the node's virtual clock ran backwards %d times", backwards)
	}
}
