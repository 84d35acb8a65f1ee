package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// WriteFresh against the triple it stands for — Write, WriteBackRange and
// InvalidateRange of one range — on twin fabrics: the same seeded workload,
// one twin calling WriteFresh wherever the other calls the triple. The
// caches are unlimited or bounded above the arena's size, so the triple's
// Write never evicts and the one stated difference (a full bounded cache,
// TestWriteFreshKeepsAFullCache) stays out of the comparison.

// freshCapLines bounds a twin's caches above the eqArenaLines it can touch.
const freshCapLines = eqArenaLines + 16

// residentIn counts the lines of [g, g+size) resident in n's cache.
func residentIn(n *Node, g GPtr, size uint64) int {
	first, last := LineSpan(g, size)
	n.cache.mu.Lock()
	defer n.cache.mu.Unlock()
	k := 0
	for li := first; li <= last; li++ {
		if n.cache.lookup(li) != nil {
			k++
		}
	}
	return k
}

// runFreshWorkload applies ops random operations drawn from r to tw; fused
// selects WriteFresh, false the triple. A range written fresh either starts
// at any byte, so partial edge lines are common, or covers whole lines.
func runFreshWorkload(t *testing.T, tw eqTwin, r *rand.Rand, ops int, fused bool) {
	t.Helper()
	for i := 0; i < ops; i++ {
		n := tw.f.Node(r.Intn(tw.f.NumNodes()))
		off := uint64(r.Intn(eqArenaBytes-8)) &^ 7
		switch k := r.Intn(100); {
		case k < 20:
			n.Store64(tw.g.Add(off), r.Uint64())
		case k < 35:
			n.Load64(tw.g.Add(off))
		case k < 45:
			g, size := randRange(r, tw, 4*LineSize)
			b := make([]byte, size)
			r.Read(b)
			n.Write(g, b)
		case k < 52:
			n.WriteBackRange(randRange(r, tw, eqArenaBytes))
		case k < 58:
			n.InvalidateRange(randRange(r, tw, eqArenaBytes))
		case k < 93:
			g, size := randRange(r, tw, 6*LineSize)
			if r.Intn(3) == 0 { // whole lines, as a page frame is
				lines := 1 + r.Intn(6)
				g = tw.g.Add(uint64(r.Intn(eqArenaLines-lines+1)) * LineSize)
				size = uint64(lines) * LineSize
			}
			b := make([]byte, size)
			if r.Intn(3) > 0 {
				r.Read(b)
			} // else zeros
			if fused {
				n.WriteFresh(g, b)
			} else {
				n.Write(g, b)
				n.WriteBackRange(g, size)
				n.InvalidateRange(g, size)
			}
			if res := residentIn(n, g, size); res != 0 {
				t.Errorf("fused=%v: %d lines of a fresh write resident afterwards", fused, res)
			}
		case k < 97:
			n.Add64(tw.g.Add(off), uint64(r.Intn(1000)))
		default:
			n.Fence()
		}
	}
}

func diffFreshTwins(t *testing.T, seed int64, capLines int, corruptPPM, dropPPM uint64, layout eqLayout) {
	t.Helper()
	triple := newEqTwin(seed, capLines, layout)
	fused := newEqTwin(seed, capLines, layout)
	triple.armFaults(corruptPPM, dropPPM)
	fused.armFaults(corruptPPM, dropPPM)
	var tripleOps, fusedOps []opRecord
	triple.recordOps(&tripleOps)
	fused.recordOps(&fusedOps)

	runFreshWorkload(t, triple, rand.New(rand.NewSource(seed)), 300, false)
	runFreshWorkload(t, fused, rand.New(rand.NewSource(seed)), 300, true)
	what := fmt.Sprintf("seed %d, capacity %d, triple vs WriteFresh", seed, capLines)
	sameTwins(t, what, triple, fused)
	sameOps(t, what, tripleOps, fusedOps)
}

func checkFreshTwins(t *testing.T, randSeed int64, corruptPPM, dropPPM uint64, layout eqLayout) {
	check := func(seed int64) bool {
		for _, capLines := range []int{-1, freshCapLines} {
			diffFreshTwins(t, seed, capLines, corruptPPM, dropPPM, layout)
		}
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(randSeed))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestWriteFreshEquivalentToTriple(t *testing.T) {
	checkFreshTwins(t, 17, 0, 0, eqFlat)
}

// With the injector armed the lines go home in the triple's ascending
// order, so both twins draw the same drops and bit flips.
func TestWriteFreshEquivalentToTripleWithFaults(t *testing.T) {
	checkFreshTwins(t, 19, 20_000, 50_000, eqFlat)
}

// Over an arena that straddles a home-memory chunk boundary and starts
// untouched: zero lines into an untouched chunk store nothing either way.
func TestWriteFreshEquivalentToTripleAcrossChunks(t *testing.T) {
	checkFreshTwins(t, 23, 0, 0, eqStraddle)
	checkFreshTwins(t, 29, 20_000, 50_000, eqStraddle)
}

// Over a sparse arena whose blocks straddle two slabs: a run of whole lines
// that installs a never-written block with its contents installs the
// blocks the triple's write-back installs, in the same order.
func TestWriteFreshEquivalentToTripleSparse(t *testing.T) {
	checkFreshTwins(t, 31, 0, 0, eqSparse)
	checkFreshTwins(t, 37, 20_000, 50_000, eqSparse)
}

// TestWriteFreshBudget pins what the fused write costs and leaves behind,
// case by case: the triple's counters (a store, a write-back and an
// invalidate per line; resident and whole lines hit, partial edge lines
// not resident miss), its three charges, ONE cache-lock acquisition, an
// OpMiss per fetched edge line then one OpWriteBackRange — and home memory
// holding the data merged over what was there, a resident line's dirty
// bytes outside the range included, with nothing resident afterwards.
func TestWriteFreshBudget(t *testing.T) {
	lat := DefaultLatency()
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: -1, Latency: lat})
	n := f.Node(0)
	g := f.Reserve(8*LineSize, LineSize)
	miss := lat.GlobalNS + n.Hops()*lat.HopNS
	burst := func(lines int) int { return miss + (lines-1)*lat.PerLineNS }

	// Line numbers count from g's first line.
	cases := []struct {
		name         string
		off, size    uint64
		clean, dirty []uint64 // resident beforehand
		missed       []uint64 // fetched: partial edge lines not resident
	}{
		{"one whole line, cold", 0, LineSize, nil, nil, nil},
		{"a word inside a line, cold", 3*LineSize + 16, 8, nil, nil, []uint64{3}},
		{"a word inside a dirty line", 3*LineSize + 16, 8, nil, []uint64{3}, nil},
		{"unaligned across three lines, cold", LineSize + 40, 2 * LineSize, nil, nil, []uint64{1, 3}},
		{"unaligned across three lines, edges resident", LineSize + 40, 2 * LineSize, []uint64{1}, []uint64{3}, nil},
		{"a frame, half resident", 0, 8 * LineSize, []uint64{0, 1}, []uint64{2, 3}, nil},
	}
	for ci, c := range cases {
		n.InvalidateAll()
		want := make([]byte, 8*LineSize)
		for i := range want {
			want[i] = byte(i*5 + ci)
		}
		f.WriteAtHome(g, want)
		for _, l := range c.clean {
			n.Load64(g.Add(l * LineSize))
		}
		for _, l := range c.dirty {
			n.Store64(g.Add(l*LineSize), 0xD1D1D1D1D1D1D1D1)
			copy(want[l*LineSize:], bytes.Repeat([]byte{0xD1}, 8))
		}
		data := make([]byte, c.size)
		for i := range data {
			data[i] = byte(0x80 | i)
		}
		copy(want[c.off:], data)
		first, last := LineSpan(g.Add(c.off), c.size)
		lines := int(last - first + 1)
		var events []opRecord
		n.SetOpHook(func(k OpKind, arg0, arg1 uint64) { events = append(events, opRecord{0, k, arg0, arg1}) })
		locks, before := n.cache.maintLockCount(), n.Stats()
		n.WriteFresh(g.Add(c.off), data)
		d, locked := n.Stats().Delta(before), n.cache.maintLockCount()-locks
		n.SetOpHook(nil)

		home := make([]byte, len(want))
		f.ReadAtHome(g, home)
		if !bytes.Equal(home, want) {
			t.Errorf("%s: home memory is not the data merged over the old lines", c.name)
		}
		misses := len(c.missed)
		hits := lines - misses
		transfer := hits * lat.LocalNS
		if misses > 0 {
			transfer += burst(misses)
		}
		ul := uint64(lines)
		wantStats := NodeStatsSnapshot{
			Stores: ul, Hits: uint64(hits), Misses: uint64(misses),
			WriteBacks: ul, Invalidates: ul, BulkBytesWritten: c.size,
			VirtualNS: uint64(transfer + burst(lines) + lat.LocalNS),
		}
		if d != wantStats {
			t.Errorf("%s: stats delta %+v, want %+v", c.name, d, wantStats)
		}
		if locked != 1 {
			t.Errorf("%s: took the cache lock %d times, want 1", c.name, locked)
		}
		var wantEvents []opRecord
		for _, l := range c.missed {
			wantEvents = append(wantEvents, opRecord{0, OpMiss, g.Line() + l, 0})
		}
		wantEvents = append(wantEvents, opRecord{0, OpWriteBackRange, first, ul})
		if !slices.Equal(events, wantEvents) {
			t.Errorf("%s: op events %v, want %v", c.name, events, wantEvents)
		}
		if res := n.CacheResidentLines(); res != 0 {
			t.Errorf("%s: %d lines resident afterwards, want 0", c.name, res)
		}
	}

	// An empty write is free and touches nothing.
	locks, before := n.cache.maintLockCount(), n.Stats()
	n.WriteFresh(g, nil)
	if d := n.Stats().Delta(before); d != (NodeStatsSnapshot{}) || n.cache.maintLockCount() != locks {
		t.Errorf("empty WriteFresh: stats delta %+v, lock taken %v", d, n.cache.maintLockCount() != locks)
	}
}

// TestWriteFreshKeepsAFullCache pins the one stated difference from the
// triple: WriteFresh inserts no line, so a bounded cache at capacity keeps
// every resident, dirty ones still dirty and not written back — where the
// triple's Write evicts one first-in resident per line of the range.
func TestWriteFreshKeepsAFullCache(t *testing.T) {
	const capLines = 8
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: capLines, Latency: DefaultLatency()})
	n := f.Node(0)
	old := f.Reserve(capLines*LineSize, LineSize)
	g := f.Reserve(4*LineSize, LineSize)
	fill := func() {
		n.InvalidateAll()
		for l := uint64(0); l < capLines; l++ {
			if l%2 == 0 {
				n.Store64(old.Add(l*LineSize), l+1)
			} else {
				n.Load64(old.Add(l * LineSize))
			}
		}
	}
	data := make([]byte, 3*LineSize) // at offset 8: four lines, both edges partial
	const lines = 4

	fill()
	before := n.Stats()
	n.WriteFresh(g.Add(8), data)
	d := n.Stats().Delta(before)
	n.cache.mu.Lock()
	for l := uint64(0); l < capLines; l++ {
		if ln := n.cache.lookup(old.Add(l * LineSize).Line()); ln == nil || ln.dirty != (l%2 == 0) {
			t.Errorf("line %d of the full cache: resident %v, want resident with dirty=%v", l, ln != nil, l%2 == 0)
		}
	}
	n.cache.mu.Unlock()
	if d.WriteBacks != lines {
		t.Errorf("WriteFresh into a full cache wrote back %d lines, want only its own %d", d.WriteBacks, lines)
	}

	fill()
	before = n.Stats()
	n.Write(g.Add(8), data)
	n.WriteBackRange(g.Add(8), uint64(len(data)))
	n.InvalidateRange(g.Add(8), uint64(len(data)))
	d = n.Stats().Delta(before)
	if res, victims := n.CacheResidentLines(), d.WriteBacks-lines; res != capLines-lines || victims != lines/2 {
		t.Errorf("the triple left %d lines resident and wrote %d dirty victims home; want %d and %d",
			res, victims, capLines-lines, lines/2)
	}
}

// TestWriteFreshAllocatesNothing: no line object, no buffer, over a cold
// range or a resident dirty one, bounded cache or not, with no hook.
func TestWriteFreshAllocatesNothing(t *testing.T) {
	for _, capLines := range []int{-1, 8} {
		f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: capLines})
		n := f.Node(0)
		g := f.Reserve(64*LineSize, LineSize)
		wide := make([]byte, 5*LineSize+24)
		for i := range wide {
			wide[i] = byte(i + 1)
		}
		i := uint64(0)
		avg := testing.AllocsPerRun(200, func() {
			n.WriteFresh(g.Add(i%32*LineSize), wide[:LineSize])
			n.WriteFresh(g.Add(i%32*LineSize+8), wide)
			i++
			n.Store64(g.Add(i%32*LineSize), i) // the next round's range starts resident and dirty
		})
		if avg != 0 {
			t.Errorf("capacity %d: %.1f allocations per round, want 0", capLines, avg)
		}
	}
}

func TestWriteFreshOnCrashedNodePanics(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	g := f.Reserve(LineSize, LineSize)
	n.Crash()
	defer func() {
		if r := recover(); r != any(CrashedError{Node: 0}) {
			t.Fatalf("recovered %v, want CrashedError{0}", r)
		}
	}()
	n.WriteFresh(g, make([]byte, 8))
}

// TestWriteFreshEquivalentToTripleSparsePages: page-sized writes into a
// sparse region, case by case, against the triple on twin fabrics. The
// region's eight pages end at a MiB boundary, and a dense region that no
// sparse one touches follows them. Home memory, the chunks and blocks
// installed and their carve order, stats, cache contents and op events
// must all agree.
func TestWriteFreshEquivalentToTripleSparsePages(t *testing.T) {
	const page, block = 4096, blockWords * WordSize
	data := func(seed byte) []byte {
		b := make([]byte, page)
		for i := range b {
			b[i] = byte(i*7) + seed | 1
		}
		return b
	}
	holey := data(3) // zero lines inside a run: a whole block, a block's head, a block's last line
	clear(holey[1*block : 2*block])
	clear(holey[2*block : 2*block+3*LineSize])
	clear(holey[5*block-LineSize : 5*block])

	cases := []struct {
		name       string
		preCarve   uint64 // blocks carved before the region, in a region of their own
		armed      bool
		setup      func(f *Fabric, g GPtr)
		off        uint64
		data       []byte
		wantBlocks int // blocks installed in the region afterwards
	}{
		{name: "a page into never-written blocks", data: data(1), wantBlocks: 8},
		{name: "a page whose block holds a record", setup: func(f *Fabric, g GPtr) {
			f.Node(1).WriteFresh(g.Add(3*block+2*LineSize), data(9)[:LineSize])
		}, data: data(1), wantBlocks: 8},
		{name: "a page over a page", setup: func(f *Fabric, g GPtr) {
			f.Node(1).WriteFresh(g, data(9))
		}, data: holey, wantBlocks: 8},
		{name: "a clean line of a never-written block cached on the writer", setup: func(f *Fabric, g GPtr) {
			f.Node(0).Load64(g.Add(2*block + 3*LineSize))
		}, data: data(1), wantBlocks: 8},
		{name: "a dirty line of a never-written block cached on the writer", setup: func(f *Fabric, g GPtr) {
			f.Node(0).Store64(g.Add(2*block+3*LineSize+8), 0xD1D1D1D1D1D1D1D1)
		}, data: data(1), wantBlocks: 8},
		{name: "zero lines over a dirty line", setup: func(f *Fabric, g GPtr) {
			f.Node(0).Store64(g.Add(1*block+5*LineSize), 0xD1D1D1D1D1D1D1D1)
		}, data: holey, wantBlocks: 7},
		{name: "zero lines inside a run", data: holey, wantBlocks: 7},
		{name: "a run starting mid-block", off: 3 * LineSize, data: data(1)[:20*LineSize], wantBlocks: 3},
		{name: "unaligned, with partial edge lines", off: 40, data: data(1), wantBlocks: 9},
		{name: "a run crossing a slab boundary", preCarve: chunkBlocks - 3, data: data(1), wantBlocks: 8},
		{name: "a run from the sparse region into a dense one", off: 8*page - 10*LineSize, data: data(1)[:20*LineSize], wantBlocks: 2},
		{name: "the injector armed", armed: true, data: data(1), wantBlocks: 8},
	}
	for _, c := range cases {
		var twins [2]*Fabric
		var logs [2][]opRecord
		var g GPtr
		for i, fused := range []bool{false, true} {
			f := New(Config{GlobalSize: 8 << 20, Nodes: 2, CacheCapacityLines: -1, Latency: DefaultLatency(), FaultSeed: 5})
			if c.preCarve > 0 {
				carveBlocks(f, c.preCarve)
			}
			f.Reserve(2<<20-8*page-f.Reserved(), LineSize)
			g = f.ReserveSparse(8 * page)
			f.Reserve(4*page, page) // the dense region
			if c.setup != nil {
				c.setup(f, g)
			}
			if c.armed {
				eqTwin{f: f}.armFaults(200_000, 100_000)
			}
			eqTwin{f: f}.recordOps(&logs[i])
			n := f.Node(0)
			for round := 0; round < 3; round++ { // armed, each round draws other faults
				if fused {
					n.WriteFresh(g.Add(c.off), c.data)
				} else {
					n.Write(g.Add(c.off), c.data)
					n.WriteBackRange(g.Add(c.off), uint64(len(c.data)))
					n.InvalidateRange(g.Add(c.off), uint64(len(c.data)))
				}
			}
			twins[i] = f
		}
		sameArena(t, c.name, twins[0], twins[1], g, 12*page)
		sameOps(t, c.name, logs[0], logs[1])
		if got := installedBlocks(twins[1]) - int(c.preCarve); got != c.wantBlocks {
			t.Errorf("%s: %d blocks installed in the region, want %d", c.name, got, c.wantBlocks)
		}
	}
}
