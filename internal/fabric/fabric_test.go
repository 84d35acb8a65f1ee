package fabric

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func testFabric(t *testing.T, nodes int) *Fabric {
	t.Helper()
	return New(Config{GlobalSize: 1 << 20, Nodes: nodes})
}

func TestGPtrHelpers(t *testing.T) {
	g := GPtr(130)
	if g.Line() != 2 {
		t.Fatalf("Line() = %d, want 2", g.Line())
	}
	if g.LineStart() != GPtr(128) {
		t.Fatalf("LineStart() = %v, want 128", g.LineStart())
	}
	if g.AlignUp(64) != GPtr(192) {
		t.Fatalf("AlignUp(64) = %v, want 192", g.AlignUp(64))
	}
	if !GPtr(128).AlignedTo(64) || GPtr(129).AlignedTo(64) {
		t.Fatal("AlignedTo wrong")
	}
	if g.Add(6).Diff(g) != 6 {
		t.Fatal("Add/Diff mismatch")
	}
	if !Nil.IsNil() || g.IsNil() {
		t.Fatal("IsNil wrong")
	}
	if Nil.String() != "g<nil>" {
		t.Fatalf("String() = %q", Nil.String())
	}
}

func TestStoreLoadRoundTripSameNode(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	g := f.Reserve(64, 64)

	n.Store64(g, 0xdeadbeefcafe)
	if got := n.Load64(g); got != 0xdeadbeefcafe {
		t.Fatalf("Load64 = %#x", got)
	}
	n.Store32(g.Add(8), 0x1234)
	if got := n.Load32(g.Add(8)); got != 0x1234 {
		t.Fatalf("Load32 = %#x", got)
	}
	n.Store16(g.Add(12), 0xbeef)
	if got := n.Load16(g.Add(12)); got != 0xbeef {
		t.Fatalf("Load16 = %#x", got)
	}
	n.Store8(g.Add(14), 0x7f)
	if got := n.Load8(g.Add(14)); got != 0x7f {
		t.Fatalf("Load8 = %#x", got)
	}
}

func TestDirtyDataInvisibleUntilWriteBack(t *testing.T) {
	f := testFabric(t, 2)
	w, r := f.Node(0), f.Node(1)
	g := f.Reserve(64, 64)

	w.Store64(g, 42) // sits dirty in node 0's cache
	if got := r.Load64(g); got != 0 {
		t.Fatalf("reader saw %d before write-back, want 0", got)
	}
	w.WriteBackRange(g, 8)
	r.InvalidateRange(g, 8)
	if got := r.Load64(g); got != 42 {
		t.Fatalf("reader saw %d after write-back+invalidate, want 42", got)
	}
}

func TestStaleReadWithoutInvalidate(t *testing.T) {
	f := testFabric(t, 2)
	w, r := f.Node(0), f.Node(1)
	g := f.Reserve(64, 64)

	w.Store64(g, 1)
	w.WriteBackRange(g, 8)
	if got := r.Load64(g); got != 1 {
		t.Fatalf("first read = %d, want 1", got)
	}
	// Node 0 updates and writes back, but node 1 never invalidates: the
	// fabric gives no coherence, so node 1 keeps seeing its cached copy.
	w.Store64(g, 2)
	w.WriteBackRange(g, 8)
	if got := r.Load64(g); got != 1 {
		t.Fatalf("stale read = %d, want 1 (no invalidate issued)", got)
	}
	r.InvalidateRange(g, 8)
	if got := r.Load64(g); got != 2 {
		t.Fatalf("read after invalidate = %d, want 2", got)
	}
}

func TestAtomicsBypassCache(t *testing.T) {
	f := testFabric(t, 2)
	a, b := f.Node(0), f.Node(1)
	g := f.Reserve(64, 64)

	a.AtomicStore64(g, 7)
	if got := b.AtomicLoad64(g); got != 7 {
		t.Fatalf("AtomicLoad64 = %d, want 7", got)
	}
	if !b.CAS64(g, 7, 8) {
		t.Fatal("CAS64 should succeed")
	}
	if b.CAS64(g, 7, 9) {
		t.Fatal("CAS64 should fail on stale expected value")
	}
	if got := a.Add64(g, 2); got != 10 {
		t.Fatalf("Add64 = %d, want 10", got)
	}
	if old := a.Swap64(g, 100); old != 10 {
		t.Fatalf("Swap64 old = %d, want 10", old)
	}
	if got := b.AtomicLoad64(g); got != 100 {
		t.Fatalf("AtomicLoad64 = %d, want 100", got)
	}
}

func TestPlainLoadDoesNotSeeAtomicWithoutInvalidate(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	g := f.Reserve(64, 64)

	if got := n.Load64(g); got != 0 { // caches the line
		t.Fatalf("initial load = %d", got)
	}
	n.AtomicStore64(g, 5) // goes straight to home, cache untouched
	if got := n.Load64(g); got != 0 {
		t.Fatalf("plain load = %d, want stale 0", got)
	}
	n.InvalidateRange(g, 8)
	if got := n.Load64(g); got != 5 {
		t.Fatalf("load after invalidate = %d, want 5", got)
	}
}

func TestBulkReadWrite(t *testing.T) {
	f := testFabric(t, 2)
	w, r := f.Node(0), f.Node(1)
	const sz = 1000 // deliberately not line-aligned
	g := f.Reserve(sz, 64).Add(3)

	data := make([]byte, sz-3)
	for i := range data {
		data[i] = byte(i * 7)
	}
	w.Write(g, data)
	w.WriteBackRange(g, uint64(len(data)))
	r.InvalidateRange(g, uint64(len(data)))
	got := make([]byte, len(data))
	r.Read(g, got)
	if !bytes.Equal(got, data) {
		t.Fatal("bulk round trip mismatch")
	}
}

func TestInvalidateDiscardsDirtyData(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	g := f.Reserve(64, 64)

	n.Store64(g, 77)
	n.InvalidateRange(g, 8) // dirty line dropped WITHOUT write-back
	if got := n.Load64(g); got != 0 {
		t.Fatalf("load after invalidate = %d, want 0 (dirty data lost)", got)
	}
}

func TestFlushRange(t *testing.T) {
	f := testFabric(t, 2)
	w, r := f.Node(0), f.Node(1)
	g := f.Reserve(64, 64)

	w.Store64(g, 11)
	w.FlushRange(g, 8)
	if got := r.Load64(g); got != 11 {
		t.Fatalf("reader = %d after flush, want 11", got)
	}
	// After the flush the writer's next load must re-fetch from home.
	var home [8]byte
	f.ReadAtHome(g, home[:])
	if home[0] != 11 {
		t.Fatalf("home memory byte = %d, want 11", home[0])
	}
}

func TestWriteBackAllAndFlushAll(t *testing.T) {
	f := testFabric(t, 2)
	w, r := f.Node(0), f.Node(1)
	g := f.Reserve(256, 64)

	for i := uint64(0); i < 4; i++ {
		w.Store64(g.Add(i*64), i+1)
	}
	w.WriteBackAll()
	for i := uint64(0); i < 4; i++ {
		if got := r.Load64(g.Add(i * 64)); got != i+1 {
			t.Fatalf("line %d: reader = %d, want %d", i, got, i+1)
		}
	}
	w.FlushAll()
	if res := w.CacheResidentLines(); res != 0 {
		t.Fatalf("resident lines after FlushAll = %d", res)
	}
}

func TestCrashLosesDirtyLines(t *testing.T) {
	f := testFabric(t, 2)
	a, b := f.Node(0), f.Node(1)
	g := f.Reserve(128, 64)

	a.Store64(g, 1)
	a.WriteBackRange(g, 8)
	a.Store64(g.Add(64), 2) // never written back
	a.Crash()
	if !a.Crashed() {
		t.Fatal("node should be crashed")
	}
	if got := b.Load64(g); got != 1 {
		t.Fatalf("persisted word = %d, want 1", got)
	}
	if got := b.Load64(g.Add(64)); got != 0 {
		t.Fatalf("unflushed word = %d, want 0 (lost in crash)", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("op on crashed node should panic")
			}
		}()
		a.Load64(g)
	}()
	a.Restart()
	if a.Crashed() {
		t.Fatal("node should be alive after Restart")
	}
	if got := a.Load64(g); got != 1 {
		t.Fatalf("restarted node read = %d, want 1", got)
	}
}

func TestCacheEvictionWritesBackDirtyVictim(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 2, CacheCapacityLines: 4})
	w, r := f.Node(0), f.Node(1)
	g := f.Reserve(64*64, 64)

	// Dirty many distinct lines; capacity 4 forces evictions, which must
	// write dirty victims back (hardware caches never drop dirty data on
	// capacity pressure).
	for i := uint64(0); i < 32; i++ {
		w.Store64(g.Add(i*64), i+1)
	}
	w.WriteBackAll()
	for i := uint64(0); i < 32; i++ {
		if got := r.Load64(g.Add(i * 64)); got != i+1 {
			t.Fatalf("line %d = %d, want %d", i, got, i+1)
		}
	}
	if res := w.CacheResidentLines(); res > 4 {
		t.Fatalf("resident = %d exceeds capacity 4", res)
	}
}

func TestReserveLayout(t *testing.T) {
	f := testFabric(t, 1)
	a := f.Reserve(10, 64)
	b := f.Reserve(10, 64)
	if !a.AlignedTo(64) || !b.AlignedTo(64) {
		t.Fatal("Reserve alignment violated")
	}
	if a == b || b < a {
		t.Fatalf("overlapping reservations %v %v", a, b)
	}
	if f.Reserved() == 0 {
		t.Fatal("Reserved() should be nonzero")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("exhausting Reserve should panic")
			}
		}()
		f.Reserve(1<<30, 64)
	}()
}

func TestBoundsAndAlignmentPanics(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil deref", func() { n.Load64(Nil) })
	mustPanic("out of range", func() { n.Load64(GPtr(f.Size())) })
	mustPanic("unaligned 64", func() { n.Load64(GPtr(65)) })
	mustPanic("unaligned atomic", func() { n.AtomicLoad64(GPtr(68)) })
	mustPanic("unaligned 32", func() { n.Load32(GPtr(66)) })
	mustPanic("zero nodes", func() { New(Config{GlobalSize: 1 << 20}) })
	mustPanic("tiny memory", func() { New(Config{GlobalSize: 64, Nodes: 1}) })
	mustPanic("bad hops", func() { New(Config{GlobalSize: 1 << 20, Nodes: 2, Hops: []int{1}}) })
	mustPanic("bad align", func() { f.Reserve(8, 3) })
}

func TestWriteAtHomeReadAtHome(t *testing.T) {
	f := testFabric(t, 1)
	g := f.Reserve(100, 64).Add(5)
	data := []byte("hello, global memory")
	f.WriteAtHome(g, data)
	got := make([]byte, len(data))
	f.ReadAtHome(g, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("home round trip = %q", got)
	}
	// A node load (cold cache) should see the provisioned data too.
	n := f.Node(0)
	nodeGot := make([]byte, len(data))
	n.Read(g, nodeGot)
	if !bytes.Equal(nodeGot, data) {
		t.Fatalf("node read = %q", nodeGot)
	}
}

func TestFaultBitFlipAtHome(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	g := f.Reserve(64, 64)
	n.Store64(g, 0)
	n.FlushRange(g, 8)
	f.Faults().FlipBitAtHome(f, g, 3)
	if got := n.Load64(g); got != 8 {
		t.Fatalf("after bit flip = %d, want 8", got)
	}
	if f.Faults().BitFlips() != 1 {
		t.Fatalf("BitFlips = %d", f.Faults().BitFlips())
	}
}

func TestFaultDropWriteBack(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, FaultSeed: 7})
	n := f.Node(0)
	f.Faults().SetDropWriteBackRate(1_000_000) // drop everything
	g := f.Reserve(64, 64)
	n.Store64(g, 9)
	n.FlushRange(g, 8)
	if got := n.Load64(g); got != 0 {
		t.Fatalf("dropped write-back still visible: %d", got)
	}
	if f.Faults().DroppedWriteBacks() == 0 {
		t.Fatal("expected dropped write-backs recorded")
	}
}

func TestFaultCorruptionOnWrite(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, FaultSeed: 11})
	n := f.Node(0)
	f.Faults().SetCorruptionRate(1_000_000) // corrupt every word
	g := f.Reserve(64, 64)
	n.Store64(g, 0)
	n.FlushRange(g, 8)
	// Every written-back word had one bit flipped; at least one of the
	// line's eight words must differ from zero.
	var buf [64]byte
	f.ReadAtHome(g.LineStart(), buf[:])
	allZero := true
	for _, b := range buf {
		if b != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("corruption rate 100% produced no corruption")
	}
	if f.Faults().BitFlips() == 0 {
		t.Fatal("no bit flips recorded")
	}
}

func TestStatsCounters(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	g := f.Reserve(128, 64)
	n.Load64(g) // miss
	n.Load64(g) // hit
	n.Store64(g.Add(8), 1)
	n.WriteBackRange(g, 64)
	n.InvalidateRange(g, 64)
	n.AtomicLoad64(g.Add(64))
	n.Fence()
	s := n.Stats()
	if s.Loads != 2 || s.Misses != 1 || s.Hits != 2 || s.Stores != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.WriteBacks != 1 || s.Invalidates != 1 || s.Atomics != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
	n.ResetStats()
	if n.Stats().Loads != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestLatencyAccounting(t *testing.T) {
	lat := DefaultLatency()
	f := New(Config{GlobalSize: 1 << 20, Nodes: 2, Latency: lat, Hops: []int{1, 3}})
	near, far := f.Node(0), f.Node(1)
	g := f.Reserve(64, 64)
	near.Load64(g) // miss: GlobalNS + 1 hop
	far.Load64(g)  // miss: GlobalNS + 3 hops
	nearNS, farNS := near.VirtualNS(), far.VirtualNS()
	wantNear := uint64(lat.GlobalNS + 1*lat.HopNS)
	wantFar := uint64(lat.GlobalNS + 3*lat.HopNS)
	if nearNS != wantNear || farNS != wantFar {
		t.Fatalf("virtual ns near=%d (want %d) far=%d (want %d)", nearNS, wantNear, farNS, wantFar)
	}
	if f.RackStats().VirtualNS != nearNS+farNS {
		t.Fatal("RackStats aggregation wrong")
	}
}

func TestConcurrentAtomicCounter(t *testing.T) {
	f := testFabric(t, 4)
	g := f.Reserve(64, 64)
	const perNode = 1000
	var wg sync.WaitGroup
	for i := 0; i < f.NumNodes(); i++ {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				n.Add64(g, 1)
			}
		}(f.Node(i))
	}
	wg.Wait()
	if got := f.Node(0).AtomicLoad64(g); got != uint64(f.NumNodes()*perNode) {
		t.Fatalf("counter = %d, want %d", got, f.NumNodes()*perNode)
	}
}

// TestLinePublicationCommitWordLast pins the single-line publication
// contract of doc.go: one node republishes a line whose eight words all
// carry the publication number, another keeps refetching it. Whatever the
// fetch finds in the last word, no other word of the same fetch may be
// older, even when the fetch and a write-back of the line overtake each
// other.
func TestLinePublicationCommitWordLast(t *testing.T) {
	f := testFabric(t, 2)
	g := f.Reserve(LineSize, LineSize)
	const rounds = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := f.Node(0)
		for k := uint64(1); k <= rounds; k++ {
			for i := uint64(0); i < LineSize; i += WordSize {
				w.Store64(g.Add(i), k)
			}
			w.WriteBackRange(g, LineSize)
		}
	}()
	r := f.Node(1)
	for commit := uint64(0); commit < rounds; {
		r.InvalidateRange(g, LineSize)
		commit = r.Load64(g.Add(LineSize - WordSize))
		for i := uint64(0); i < LineSize-WordSize; i += WordSize {
			if v := r.Load64(g.Add(i)); v < commit {
				t.Errorf("fetch saw commit word %d beside word %d = %d", commit, i/WordSize, v)
				commit = rounds
				break
			}
		}
	}
	wg.Wait()
}

func TestConcurrentDisjointBulkWriters(t *testing.T) {
	f := testFabric(t, 4)
	const region = 4096
	g := f.Reserve(region*4, 64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := f.Node(i)
			buf := bytes.Repeat([]byte{byte(i + 1)}, region)
			n.Write(g.Add(uint64(i)*region), buf)
			n.FlushRange(g.Add(uint64(i)*region), region)
		}(i)
	}
	wg.Wait()
	check := f.Node(0)
	check.InvalidateAll()
	for i := 0; i < 4; i++ {
		buf := make([]byte, region)
		check.Read(g.Add(uint64(i)*region), buf)
		for j, b := range buf {
			if b != byte(i+1) {
				t.Fatalf("region %d byte %d = %d", i, j, b)
			}
		}
	}
}

func TestQuickWriteFlushReadRoundTrip(t *testing.T) {
	f := testFabric(t, 2)
	base := f.Reserve(1<<16, 64)
	w, r := f.Node(0), f.Node(1)
	prop := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		g := base.Add(uint64(off) % (1<<16 - 4096))
		w.Write(g, data)
		w.WriteBackRange(g, uint64(len(data)))
		r.InvalidateRange(g, uint64(len(data)))
		got := make([]byte, len(data))
		r.Read(g, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpinLatencyMode(t *testing.T) {
	lat := DefaultLatency()
	lat.Mode = LatencySpin
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, Latency: lat})
	n := f.Node(0)
	g := f.Reserve(64, 64)
	// Just exercise the spin path; timing assertions would be flaky.
	for i := 0; i < 10; i++ {
		n.Store64(g, uint64(i))
		n.FlushRange(g, 8)
	}
	if n.VirtualNS() == 0 {
		t.Fatal("spin mode should still account virtual time")
	}
}
