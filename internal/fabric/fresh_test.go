package fabric

import (
	"bytes"
	"testing"
)

// TestReadFreshBudget pins what the uncached ranged read costs and leaves
// behind: the charge of the InvalidateRange + Read pair it stands for
// (LocalNS plus ONE pipelined transfer), one load that missed every line,
// the resident lines it dropped as invalidates, the bytes as bulk bytes,
// one cache-lock acquisition, one op event — and nothing resident
// afterwards, which is the whole point.
func TestReadFreshBudget(t *testing.T) {
	lat := DefaultLatency()
	f := New(Config{GlobalSize: 1 << 20, Nodes: 2, CacheCapacityLines: -1, Latency: lat})
	w, n := f.Node(0), f.Node(1)
	g := f.Reserve(8*LineSize, LineSize)
	want := make([]byte, 8*LineSize)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	w.Write(g, want)
	w.WriteBackRange(g, uint64(len(want)))

	miss := lat.GlobalNS + n.Hops()*lat.HopNS
	cases := []struct {
		name      string
		off, size uint64
		resident  uint64 // lines of the range cached (stale) beforehand
		lines     uint64
	}{
		{"one aligned line, cold", 0, LineSize, 0, 1},
		{"one aligned line, resident", LineSize, LineSize, 1, 1},
		{"a word inside a line", 3*LineSize + 16, 8, 1, 1},
		{"unaligned across three lines", LineSize + 40, 2 * LineSize, 2, 3},
		{"eight lines, half resident", 0, 8 * LineSize, 4, 8},
	}
	for _, c := range cases {
		n.InvalidateAll()
		first, _ := LineSpan(g.Add(c.off), c.size)
		for l := uint64(0); l < c.resident; l++ {
			n.Load64(GPtr((first + l) * LineSize))
		}
		var events, evFirst, evLines uint64
		n.SetOpHook(func(k OpKind, arg0, arg1 uint64) {
			if k == OpReadFresh {
				events, evFirst, evLines = events+1, arg0, arg1
			} else {
				t.Errorf("%s: unexpected %v event", c.name, k)
			}
		})
		buf := make([]byte, c.size)
		locks, before := n.cache.maintLockCount(), n.Stats()
		n.ReadFresh(g.Add(c.off), buf)
		d, locked := n.Stats().Delta(before), n.cache.maintLockCount()-locks
		n.SetOpHook(nil)

		if !bytes.Equal(buf, want[c.off:c.off+c.size]) {
			t.Errorf("%s: wrong bytes", c.name)
		}
		wantNS := uint64(lat.LocalNS + miss + int(c.lines-1)*lat.PerLineNS)
		wantStats := NodeStatsSnapshot{Loads: 1, Misses: c.lines, Invalidates: c.resident, BulkBytesRead: c.size, VirtualNS: wantNS}
		if d != wantStats {
			t.Errorf("%s: stats delta %+v, want %+v", c.name, d, wantStats)
		}
		if locked != 1 {
			t.Errorf("%s: took the cache lock %d times, want 1", c.name, locked)
		}
		if events != 1 || evFirst != first || evLines != c.lines {
			t.Errorf("%s: %d op events (first line %d, %d lines), want 1 (%d, %d)", c.name, events, evFirst, evLines, first, c.lines)
		}
		if res := n.CacheResidentLines(); res != 0 {
			t.Errorf("%s: %d lines resident afterwards, want 0", c.name, res)
		}
	}
	if ns := lat.LocalNS + miss; ns != 630 {
		t.Errorf("one fresh line costs %d sim_ns under the default model, the ledger says 630", ns)
	}

	// An empty read is free and touches nothing.
	locks, before := n.cache.maintLockCount(), n.Stats()
	n.ReadFresh(g, nil)
	if d := n.Stats().Delta(before); d != (NodeStatsSnapshot{}) || n.cache.maintLockCount() != locks {
		t.Errorf("empty ReadFresh: stats delta %+v, lock taken %v", d, n.cache.maintLockCount() != locks)
	}
}

// TestReadFreshSeesHomeNotTheCache: the read observes what fabric atomics
// and other nodes' write-backs left in home memory, whatever this node has
// cached — and, like InvalidateRange, it discards this node's own dirty
// data in the range.
func TestReadFreshSeesHomeNotTheCache(t *testing.T) {
	f := testFabric(t, 2)
	a, b := f.Node(0), f.Node(1)
	g := f.Reserve(2*LineSize, LineSize)
	a.Load64(g) // a caches the line: zero
	b.AtomicStore64(g, 41)
	b.Store64(g.Add(8), 42)
	b.WriteBackRange(g, LineSize)
	if got := a.Load64(g); got != 0 {
		t.Fatalf("cached load = %d, want the stale 0", got)
	}
	var w [16]byte
	a.ReadFresh(g, w[:])
	if w[0] != 41 || w[8] != 42 {
		t.Fatalf("ReadFresh = %d, %d; want home's 41, 42", w[0], w[8])
	}
	if got := a.Load64(g); got != 41 {
		t.Fatalf("load after ReadFresh = %d: the stale line should have been dropped", got)
	}

	a.Store64(g.Add(LineSize), 7) // dirty, never written back
	a.ReadFresh(g.Add(LineSize), w[:8])
	a.WriteBackAll()
	if w[0] != 0 || b.AtomicLoad64(g.Add(LineSize)) != 0 {
		t.Fatalf("ReadFresh over a dirty line read %d and home holds %d; the dirty word is lost by contract", w[0], b.AtomicLoad64(g.Add(LineSize)))
	}
}

// TestReadFreshAllocatesNothing: no line object, no buffer, on a cold range
// or a resident one, bounded cache or not.
func TestReadFreshAllocatesNothing(t *testing.T) {
	for _, capLines := range []int{-1, 8} {
		f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: capLines})
		n := f.Node(0)
		g := f.Reserve(64*LineSize, LineSize)
		var line [LineSize]byte
		wide := make([]byte, 5*LineSize+24)
		i := uint64(0)
		avg := testing.AllocsPerRun(200, func() {
			n.ReadFresh(g.Add(i%32*LineSize), line[:])
			n.ReadFresh(g.Add(i%32*LineSize+8), wide)
			i++
			n.Load64(g.Add(i % 32 * LineSize)) // the next round's range starts resident
		})
		if avg != 0 {
			t.Errorf("capacity %d: %.1f allocations per round, want 0", capLines, avg)
		}
		n.InvalidateAll()
		n.ReadFresh(g, wide)
		if res := n.CacheResidentLines(); res != 0 {
			t.Errorf("capacity %d: %d lines resident after ReadFresh, want 0", capLines, res)
		}
	}
}

func TestReadFreshOnCrashedNodePanics(t *testing.T) {
	f := testFabric(t, 1)
	n := f.Node(0)
	g := f.Reserve(LineSize, LineSize)
	n.Crash()
	defer func() {
		if r := recover(); r != any(CrashedError{Node: 0}) {
			t.Fatalf("recovered %v, want CrashedError{0}", r)
		}
	}()
	var w [8]byte
	n.ReadFresh(g, w[:])
}
