package fabric

import "testing"

// The ranged maintenance contract: every call takes the cache lock
// exactly once, no matter how many lines the range covers or how many
// dirty lines it harvests — including ranges that spill past the stack
// harvest buffer.

func dirtyLines(n *Node, g GPtr, lines uint64) {
	for l := uint64(0); l < lines; l++ {
		n.Store64(g.Add(l*LineSize), l+1)
	}
}

func TestRangedOpsTakeCacheLockOncePerCall(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: -1})
	n := f.Node(0)
	g := f.Reserve(256*LineSize, LineSize)

	calls := []struct {
		name string
		prep func()
		op   func()
	}{
		{"WriteBackRange/small", func() { dirtyLines(n, g, 2) },
			func() { n.WriteBackRange(g, 2*LineSize) }},
		{"WriteBackRange/stack", func() { dirtyLines(n, g, 64) },
			func() { n.WriteBackRange(g, 64*LineSize) }},
		{"WriteBackRange/spill", func() { dirtyLines(n, g, 200) },
			func() { n.WriteBackRange(g, 200*LineSize) }},
		{"WriteBackRange/clean", func() {},
			func() { n.WriteBackRange(g, 64*LineSize) }},
		{"InvalidateRange", func() { dirtyLines(n, g, 64) },
			func() { n.InvalidateRange(g, 64*LineSize) }},
		{"FlushRange/small", func() { dirtyLines(n, g, 2) },
			func() { n.FlushRange(g, 2*LineSize) }},
		{"FlushRange/spill", func() { dirtyLines(n, g, 200) },
			func() { n.FlushRange(g, 200*LineSize) }},
		{"WriteBackAll", func() { dirtyLines(n, g, 64) },
			func() { n.WriteBackAll() }},
		{"InvalidateAll", func() { dirtyLines(n, g, 64) },
			func() { n.InvalidateAll() }},
	}
	for _, c := range calls {
		c.prep()
		before := n.cache.maintLockCount()
		c.op()
		if got := n.cache.maintLockCount() - before; got != 1 {
			t.Errorf("%s acquired the cache lock %d times, want exactly 1", c.name, got)
		}
	}

	// Zero-size ranged calls return before touching the cache at all.
	before := n.cache.maintLockCount()
	n.WriteBackRange(g, 0)
	n.InvalidateRange(g, 0)
	n.FlushRange(g, 0)
	if got := n.cache.maintLockCount() - before; got != 0 {
		t.Errorf("zero-size ranged ops acquired the cache lock %d times, want 0", got)
	}
}

// TestWriteBackRangeSpillsPastStackBuffer pins correctness (not just lock
// count) when the dirty harvest exceeds wbHarvestCap and the buffer moves
// to the heap: every line still reaches home, once, in one stats bump.
func TestWriteBackRangeSpillsPastStackBuffer(t *testing.T) {
	const lines = wbHarvestCap*3 + 7
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: -1})
	n := f.Node(0)
	g := f.Reserve(lines*LineSize, LineSize)
	dirtyLines(n, g, lines)

	before := n.Stats()
	n.WriteBackRange(g, lines*LineSize)
	d := n.Stats().Delta(before)
	if d.WriteBacks != lines {
		t.Fatalf("WriteBacks delta = %d, want %d", d.WriteBacks, lines)
	}
	for l := uint64(0); l < lines; l++ {
		var word [8]byte
		f.ReadAtHome(g.Add(l*LineSize), word[:])
		if got := uint64(word[0]) | uint64(word[1])<<8 | uint64(word[2])<<16 | uint64(word[3])<<24 |
			uint64(word[4])<<32 | uint64(word[5])<<40 | uint64(word[6])<<48 | uint64(word[7])<<56; got != l+1 {
			t.Fatalf("line %d home word = %d, want %d", l, got, l+1)
		}
	}
}

// TestRangedVirtualCostMatchesPerLine pins the virtual-time contract the
// differential suite relies on: batching changes wall cost only — the
// modeled (virtual) charge for a ranged write-back equals the pinned
// per-line baseline's to the nanosecond.
func TestRangedVirtualCostMatchesPerLine(t *testing.T) {
	mk := func() (*Fabric, *Node, GPtr) {
		f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: -1,
			Latency: DefaultLatency()})
		return f, f.Node(0), f.Reserve(64*LineSize, LineSize)
	}
	fa, na, ga := mk()
	fb, nb, gb := mk()
	_ = fa
	_ = fb
	dirtyLines(na, ga, 16)
	dirtyLines(nb, gb, 16)
	va, vb := na.VirtualNS(), nb.VirtualNS()
	na.WriteBackRange(ga, 16*LineSize)
	nb.WriteBackRangePerLine(gb, 16*LineSize)
	if da, db := na.VirtualNS()-va, nb.VirtualNS()-vb; da != db {
		t.Errorf("ranged write-back charged %d virtual ns, per-line baseline %d", da, db)
	}
}

// TestFlushRangeSinglePass pins FlushRange's fused semantics: dirty data
// reaches home, the lines leave the cache, and the stats agree with the
// two-pass legacy flush.
func TestFlushRangeSinglePass(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: -1})
	n := f.Node(0)
	g := f.Reserve(9*LineSize, LineSize)
	dirtyLines(n, g, 8)
	n.Load64(g.Add(8 * LineSize)) // clean resident line outside the flushed range

	before := n.Stats()
	n.FlushRange(g, 4*LineSize)
	d := n.Stats().Delta(before)
	if d.WriteBacks != 4 || d.Invalidates != 4 {
		t.Errorf("flush delta write-backs=%d invalidates=%d, want 4/4", d.WriteBacks, d.Invalidates)
	}
	if res := n.cache.resident(); res != 5 { // 4 dirty lines + 1 clean load survive
		t.Errorf("resident lines after flush = %d, want 5", res)
	}
	var w [8]byte
	f.ReadAtHome(g.Add(2*LineSize), w[:])
	if w[0] != 3 { // dirtyLines stored l+1
		t.Errorf("flushed line did not reach home: got %d", w[0])
	}
}

// TestDroppedLinesAreRecycledClean pins the cache's free list: a line
// object dropped by an invalidate is what the next miss uses, and it
// arrives zeroed and clean whatever it held when it was dropped.
func TestDroppedLinesAreRecycledClean(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: -1})
	n := f.Node(0)
	g := f.Reserve(2*LineSize, LineSize)
	dirtyLines(n, g, 1)
	dropped := n.cache.lines[g.Line()]
	n.InvalidateRange(g, LineSize) // the dirty word is lost, by contract

	c := n.cache
	c.mu.Lock()
	ln := c.newLine()
	onList := len(c.free)
	c.mu.Unlock()
	if ln != dropped || onList != 0 {
		t.Fatalf("miss after a drop got a fresh line object (free list still holds %d)", onList)
	}
	if *ln != (cacheLine{}) {
		t.Errorf("recycled line arrived dirty=%v data=%v, want zeroed and clean", ln.dirty, ln.data)
	}

	// Through the public surface: the recycled object carries nothing of
	// the lost store into the line that reuses it.
	dirtyLines(n, g, 1)
	n.InvalidateRange(g, LineSize)
	before := n.Stats()
	if got := n.Load64(g.Add(LineSize + 8)); got != 0 {
		t.Errorf("load through a recycled line = %d, want home's 0", got)
	}
	n.WriteBackRange(g, 2*LineSize)
	if d := n.Stats().Delta(before); d.WriteBacks != 0 {
		t.Errorf("a recycled line was written back %d times after a load", d.WriteBacks)
	}

	// The list is bounded: a bulk invalidate retains freeLinesMax objects.
	wide := f.Reserve((freeLinesMax+64)*LineSize, LineSize)
	dirtyLines(n, wide, freeLinesMax+64)
	n.InvalidateRange(wide, (freeLinesMax+64)*LineSize)
	if got := len(n.cache.free); got != freeLinesMax {
		t.Errorf("free list holds %d lines after a bulk invalidate, want the cap %d", got, freeLinesMax)
	}
}

// TestTransportCycleAllocatesNothing is the host-side budget of what an
// ipc message costs the cache: the receiver's invalidate-then-read of a
// message and the sender's write-then-write-back of one wider than the
// stack harvest buffer reuse line objects and a pooled spill buffer. (The
// race detector makes sync.Pool drop one Put in four; the average stays
// under one allocation per cycle.)
func TestTransportCycleAllocatesNothing(t *testing.T) {
	const lines = wbHarvestCap + 32
	f := New(Config{GlobalSize: 1 << 20, Nodes: 2, CacheCapacityLines: -1})
	tx, rx := f.Node(0), f.Node(1)
	g := f.Reserve(lines*LineSize, LineSize)
	msg := make([]byte, lines*LineSize)
	cycle := func() {
		tx.Write(g, msg)
		tx.WriteBackRange(g, uint64(len(msg)))
		rx.InvalidateRange(g, uint64(len(msg)))
		rx.Read(g, msg)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("a %d-line send and receive allocates %.0f objects per cycle, want 0", lines, avg)
	}
}
