package alloc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"flacos/internal/fabric"
)

func arena(t *testing.T, nodes int, mb uint64) (*fabric.Fabric, *Arena) {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: (mb + 4) << 20, Nodes: nodes})
	return f, NewArena(f, mb<<20)
}

func TestClassFor(t *testing.T) {
	cases := map[uint64]uint64{1: 64, 64: 64, 65: 128, 4096: 4096, 4097: 8192, 65536: 65536}
	for in, want := range cases {
		if got := ClassSize(in); got != want {
			t.Errorf("ClassSize(%d) = %d, want %d", in, got, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("oversize should panic")
			}
		}()
		ClassSize(MaxAlloc + 1)
	}()
}

func TestAllocZeroedAndAligned(t *testing.T) {
	f, a := arena(t, 1, 2)
	na := a.NodeAllocator(f.Node(0), 0)
	seen := map[fabric.GPtr]bool{}
	for i := 0; i < 100; i++ {
		g := na.Alloc(100)
		if !g.AlignedTo(fabric.LineSize) {
			t.Fatalf("block %v not line aligned", g)
		}
		if seen[g] {
			t.Fatalf("block %v handed out twice", g)
		}
		seen[g] = true
		buf := make([]byte, 128)
		f.Node(0).Read(g, buf)
		for j, b := range buf {
			if b != 0 {
				t.Fatalf("alloc %d byte %d = %d, want 0", i, j, b)
			}
		}
	}
}

func TestFreeReuseSameClass(t *testing.T) {
	f, a := arena(t, 1, 2)
	na := a.NodeAllocator(f.Node(0), 4)
	g1 := na.Alloc(64)
	na.Free(g1)
	g2 := na.Alloc(64)
	if g1 != g2 {
		t.Fatalf("magazine should recycle %v, got %v", g1, g2)
	}
	allocs, frees := na.Stats()
	if allocs != 2 || frees != 1 {
		t.Fatalf("stats = %d/%d", allocs, frees)
	}
}

func TestFreeErrors(t *testing.T) {
	f, a := arena(t, 1, 2)
	na := a.NodeAllocator(f.Node(0), 0)
	mustPanic := func(name, msg string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), msg) {
				t.Fatalf("%s: panic %v, want one mentioning %q", name, r, msg)
			}
		}()
		fn()
	}
	// Twice: on a fresh allocator, and again once a Free has put an entry
	// in the slab-class memo — the memo must not answer for an address it
	// has never seen.
	for round := 0; round < 2; round++ {
		mustPanic("nil free", "Free(nil)", func() { na.Free(fabric.Nil) })
		mustPanic("below the arena", "outside arena", func() { na.Free(fabric.GPtr(8)) })
		mustPanic("past the arena", "outside arena", func() { na.Free(a.base.Add(a.slabs * SlabSize)) })
		mustPanic("unassigned slab", "unassigned slab", func() { na.Free(a.base.Add((a.slabs - 1) * SlabSize)) })
		na.Free(na.AllocUninit(64))
	}
}

// TestFreeFabricBudget pins Free's fabric cost from Node.Stats() deltas:
// the class table is read once per slab per node — one atomic on the first
// Free into a slab — and a Free into a slab the node has freed into before
// touches the fabric not at all (the magazine has room throughout).
func TestFreeFabricBudget(t *testing.T) {
	f, a := arena(t, 2, 2)
	n0, n1 := f.Node(0), f.Node(1)
	na0, na1 := a.NodeAllocator(n0, 0), a.NodeAllocator(n1, 0)
	atomicNS := uint64(f.Latency().AtomicNS + n0.Hops()*f.Latency().HopNS)
	free := func(na *NodeAllocator, g fabric.GPtr, atomics uint64, what string) {
		t.Helper()
		before := na.Node().Stats()
		na.Free(g)
		if d := na.Node().Stats().Delta(before); d.Atomics != atomics || d.VirtualNS != atomics*atomicNS {
			t.Fatalf("%s: %d atomics, %d sim_ns; want %d atomics and nothing else", what, d.Atomics, d.VirtualNS, atomics)
		}
	}
	var small, large, remote []fabric.GPtr // two slabs of node 0's, and blocks node 1 will free
	for i := 0; i < 8; i++ {
		small, large, remote = append(small, na0.AllocUninit(100)), append(large, na0.AllocUninit(3000)), append(remote, na0.AllocUninit(100))
	}
	for i := range small {
		first := uint64(0)
		if i == 0 {
			first = 1
		}
		free(na0, small[i], first, fmt.Sprintf("node 0, 128 B slab, Free #%d", i+1))
		free(na0, large[i], first, fmt.Sprintf("node 0, 4 KiB slab, Free #%d", i+1))
		free(na1, remote[i], first, fmt.Sprintf("node 1 into node 0's slab, Free #%d", i+1))
	}
}

func TestCrossNodeAllocFree(t *testing.T) {
	// A block allocated on node 0, published, and freed on node 1 must be
	// reusable: class recovery and the central lists are all atomics-based.
	f, a := arena(t, 2, 2)
	na0 := a.NodeAllocator(f.Node(0), 0)
	na1 := a.NodeAllocator(f.Node(1), 0)
	g := na0.Alloc(1024)
	na1.Free(g)
	na1.FlushMagazines()
	// Node 0 can get it back via the central list eventually.
	seen := false
	for i := 0; i < 1000 && !seen; i++ {
		b := na0.AllocUninit(1024)
		if b == g {
			seen = true
		}
	}
	if !seen {
		t.Fatal("freed block never recycled through central list")
	}
}

func TestConcurrentAllocFreeStress(t *testing.T) {
	const workers, iters = 4, 500
	f, a := arena(t, 4, 8)
	var wg sync.WaitGroup
	var mu sync.Mutex
	claimed := map[fabric.GPtr]int{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			na := a.NodeAllocator(f.Node(w), 8)
			local := make([]fabric.GPtr, 0, 16)
			for i := 0; i < iters; i++ {
				g := na.AllocUninit(256)
				mu.Lock()
				if owner, dup := claimed[g]; dup {
					mu.Unlock()
					t.Errorf("block %v double-allocated (worker %d and %d)", g, owner, w)
					return
				}
				claimed[g] = w
				mu.Unlock()
				local = append(local, g)
				if len(local) == 16 {
					for _, b := range local {
						mu.Lock()
						delete(claimed, b)
						mu.Unlock()
						na.Free(b)
					}
					local = local[:0]
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestArenaExhaustionPanics(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 2 << 20, Nodes: 1})
	a := NewArena(f, SlabSize) // exactly one slab
	na := a.NodeAllocator(f.Node(0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("exhaustion should panic")
		}
	}()
	for i := 0; i < SlabSize/64+2; i++ {
		na.AllocUninit(64) // never freed
	}
}

func TestRelocatePreservesContents(t *testing.T) {
	f, a := arena(t, 1, 2)
	n := f.Node(0)
	na := a.NodeAllocator(n, 0)
	g := na.Alloc(512)
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 3)
	}
	n.Write(g, data)
	n.WriteBackRange(g, 512)

	var newG fabric.GPtr
	release := na.Relocate(g, 512, func(ng fabric.GPtr) { newG = ng })
	if newG.IsNil() || newG == g {
		t.Fatalf("relocate gave %v", newG)
	}
	got := make([]byte, 512)
	n.InvalidateRange(newG, 512)
	n.Read(newG, got)
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
	release()
	_, frees := na.Stats()
	if frees != 1 {
		t.Fatalf("frees = %d", frees)
	}
}

func TestQuickAllocWriteReadFree(t *testing.T) {
	f, a := arena(t, 1, 8)
	n := f.Node(0)
	na := a.NodeAllocator(n, 8)
	prop := func(sz uint16, fill byte) bool {
		size := uint64(sz%4096) + 1
		g := na.Alloc(size)
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = fill
		}
		n.Write(g, buf)
		got := make([]byte, size)
		n.Read(g, got)
		for i := range got {
			if got[i] != fill {
				return false
			}
		}
		na.Free(g)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
