package fabric

import (
	"math/rand"
	"slices"
	"testing"
)

// evictionRun drives one seeded stream of loads, stores and single-line
// invalidates through a bounded cache and returns every eviction victim in
// order, with the node's final counters. It also checks each victim
// against the rule: the line resident longest goes first, and a hit does
// not renew a line's turn.
func evictionRun(t *testing.T, seed int64) ([]uint64, NodeStatsSnapshot) {
	t.Helper()
	const capLines, span, steps = 16, 96, 4000
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: capLines, Latency: DefaultLatency()})
	n := f.Node(0)
	g := f.Reserve(span*LineSize, LineSize)
	base := g.Line()
	rng := rand.New(rand.NewSource(seed))

	var victims, fifo []uint64 // fifo: resident lines, oldest first
	resident := func() []uint64 {
		n.cache.mu.Lock()
		defer n.cache.mu.Unlock()
		var ls []uint64
		for li := range n.cache.all() {
			ls = append(ls, li)
		}
		return ls
	}
	for step := 0; step < steps; step++ {
		li := base + uint64(rng.Intn(span))
		at := GPtr(li * LineSize)
		switch op := rng.Intn(10); {
		case op == 0:
			n.InvalidateRange(at, LineSize)
			if i := slices.Index(fifo, li); i >= 0 {
				fifo = slices.Delete(fifo, i, i+1)
			}
			continue
		case op < 5:
			n.Load64(at)
		default:
			n.Store64(at, uint64(step))
		}
		if slices.Contains(fifo, li) {
			continue // a hit
		}
		if len(fifo) == capLines {
			victims = append(victims, fifo[0])
			fifo = fifo[1:]
		}
		fifo = append(fifo, li)
		if got := resident(); len(got) != len(fifo) {
			t.Fatalf("step %d: %d lines resident, the first-in-first-out model holds %d", step, len(got), len(fifo))
		}
		for _, want := range fifo {
			if n.cache.lookup(want) == nil {
				t.Fatalf("step %d: line %d is not resident; the victim was not the line resident longest (%d)", step, want-base, victims[len(victims)-1]-base)
			}
		}
	}
	if len(victims) < steps/4 {
		t.Fatalf("only %d evictions in %d steps: the stream does not exercise the policy", len(victims), steps)
	}
	return victims, n.Stats()
}

// TestEvictionOrderIsDeterministic: the victim depends on the access
// stream and nothing else, so two runs of one seed evict the same lines in
// the same order and end with identical counters (write-backs of dirty
// victims included), and the order is first in, first out. Under Go map
// iteration order — what the cache used to follow — neither held.
func TestEvictionOrderIsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		v1, s1 := evictionRun(t, seed)
		v2, s2 := evictionRun(t, seed)
		if !slices.Equal(v1, v2) {
			t.Fatalf("seed %d: two runs evicted different victim sequences", seed)
		}
		if s1 != s2 {
			t.Fatalf("seed %d: two runs ended with different stats:\n%+v\n%+v", seed, s1, s2)
		}
	}
}

// TestEvictionSparesTheOpsOwnLines: a ranged write into a full cache evicts
// the lines that were there before it, never the dirty lines it has just
// inserted itself — so the write-back that follows finds every one of them
// resident and moves them in ONE burst, and no line of the op goes home
// twice (once as a victim, once refetched and rewritten).
func TestEvictionSparesTheOpsOwnLines(t *testing.T) {
	const capLines, own = 8, 6
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: capLines})
	n := f.Node(0)
	old := f.Reserve(capLines*LineSize, LineSize)
	g := f.Reserve(own*LineSize, LineSize)
	for round := 0; round < 20; round++ {
		for l := uint64(0); l < capLines; l++ {
			n.Load64(old.Add(l * LineSize)) // fill the cache with clean lines
		}
		var evicted []uint64
		n.SetOpHook(func(k OpKind, arg0, _ uint64) {
			if k == OpWriteBack {
				evicted = append(evicted, arg0)
			}
		})
		before := n.Stats()
		n.Write(g, make([]byte, own*LineSize))
		n.WriteBackRange(g, own*LineSize)
		d := n.Stats().Delta(before)
		n.SetOpHook(nil)
		if len(evicted) != 0 || d.WriteBacks != own || d.Misses != 0 {
			t.Fatalf("round %d: %d dirty victims %v, %d lines written back, %d fetched; want 0, %d, 0",
				round, len(evicted), evicted, d.WriteBacks, d.Misses, own)
		}
		n.InvalidateRange(g, own*LineSize)
	}
}

// TestUnlimitedCacheTracksNoOrder: an unlimited cache never evicts, so it
// keeps no eviction order at all — what a line costs the host does not grow.
func TestUnlimitedCacheTracksNoOrder(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: -1})
	n := f.Node(0)
	g := f.Reserve(64*LineSize, LineSize)
	dirtyLines(n, g, 64)
	n.InvalidateRange(g, 8*LineSize)
	if n.cache.order != nil {
		t.Fatalf("unlimited cache tracks an eviction order of %d links", len(n.cache.order))
	}
}

// TestEvictionOrderSurvivesReset: a crash or InvalidateAll empties the
// order with the cache; the refilled cache evicts first in, first out.
func TestEvictionOrderSurvivesReset(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: 4})
	n := f.Node(0)
	g := f.Reserve(16*LineSize, LineSize)
	for l := uint64(0); l < 6; l++ {
		n.Load64(g.Add(l * LineSize))
	}
	n.InvalidateAll()
	for l := uint64(8); l < 13; l++ { // five lines into four slots: line 8 goes
		n.Load64(g.Add(l * LineSize))
	}
	for l := uint64(8); l < 13; l++ {
		if got, want := n.cache.lookup(g.Add(l*LineSize).Line()) != nil, l != 8; got != want {
			t.Fatalf("after a reset and five loads, line %d resident=%v, want %v", l, got, want)
		}
	}
}

// TestPerLineInvalidateLeavesEvictionOrder: the pinned per-line invalidate
// takes a dropped line out of a bounded cache's eviction order too, so
// the misses that follow evict resident lines, first in first out.
func TestPerLineInvalidateLeavesEvictionOrder(t *testing.T) {
	f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: 4})
	n := f.Node(0)
	g := f.Reserve(16*LineSize, LineSize)
	for l := uint64(0); l < 4; l++ {
		n.Store64(g.Add(l*LineSize), l+1)
	}
	n.InvalidateRangePerLine(g.Add(LineSize), LineSize)
	for l := uint64(4); l < 12; l++ {
		n.Store64(g.Add(l*LineSize), l+1)
	}
	for l := uint64(0); l < 12; l++ {
		if got, want := n.cache.lookup(g.Add(l*LineSize).Line()) != nil, l >= 8; got != want {
			t.Fatalf("line %d resident=%v, want %v", l, got, want)
		}
	}
}
