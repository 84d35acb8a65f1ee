package ds_test

import (
	"sync"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/ds"
)

// walkCost is what node n is charged for one fabric atomic and for one
// node-local access, measured rather than read from the latency model so
// the budget tests hold at any hop count.
func walkCost(n *fabric.Node, probe fabric.GPtr) (atomicNS, localNS uint64) {
	v := n.VirtualNS()
	n.AtomicLoad64(probe)
	atomicNS = n.VirtualNS() - v
	v = n.VirtualNS()
	n.ChargeLocal()
	return atomicNS, n.VirtualNS() - v
}

// getCost runs tr.Get(n, key) and returns its value, the fabric atomics it
// issued and the virtual ns it was charged.
func getCost(tr *ds.RadixTree, n *fabric.Node, key uint64) (v, atomics, ns uint64) {
	before := n.Stats()
	v = tr.Get(n, key)
	after := n.Stats()
	return v, after.Atomics - before.Atomics, after.VirtualNS - before.VirtualNS
}

// TestRadixWalkCacheCost pins the walk cache's budget: a Get whose prefix
// the node has not walked is Levels() atomics, and once it has, any key of
// that prefix is the leaf word's atomic plus one node-local access. The
// cache is per node: node 0's walks warm nothing for node 1.
func TestRadixWalkCacheCost(t *testing.T) {
	f := rack(t, 2, 16)
	a := alloc.NewArena(f, 8<<20)
	na := a.NodeAllocator(f.Node(0), 0)
	tr := ds.NewRadixTree(f, na)
	n0, n1 := f.Node(0), f.Node(1)
	const key = 0x01020304
	tr.Put(n0, na, key, 11)
	tr.Put(n0, na, key^0x7f, 12)

	atomicNS, localNS := walkCost(n1, tr.Root())
	levels := uint64(tr.Levels())
	if v, atomics, ns := getCost(tr, n1, key); v != 11 || atomics != levels || ns != levels*atomicNS {
		t.Fatalf("cold Get = %d with %d atomics, %d ns; want 11 with %d atomics, %d ns",
			v, atomics, ns, levels, levels*atomicNS)
	}
	for _, k := range []uint64{key, key ^ 0x7f} {
		want := tr.Get(n0, k)
		if v, atomics, ns := getCost(tr, n1, k); v != want || atomics != 1 || ns != atomicNS+localNS {
			t.Fatalf("warm Get(%#x) = %d with %d atomics, %d ns; want %d with 1 atomic, %d ns",
				k, v, atomics, ns, want, atomicNS+localNS)
		}
	}
	// A warm Put pays the same: the walk is skipped, the swap is the atomic.
	before := n1.Stats()
	tr.Put(n1, a.NodeAllocator(n1, 0), key, 13)
	if d := n1.Stats().Atomics - before.Atomics; d != 1 {
		t.Fatalf("warm Put issued %d atomics, want 1", d)
	}
	if got := tr.Get(n0, key); got != 13 {
		t.Fatalf("node 0 reads %d after node 1's warm Put, want 13", got)
	}
}

// TestRadixWalkCachesNoAbsentPrefix: a walk that ends at a missing table
// caches nothing, so a prefix node 0 found absent is found, by a full
// walk, once node 1 has installed it.
func TestRadixWalkCachesNoAbsentPrefix(t *testing.T) {
	f := rack(t, 2, 16)
	a := alloc.NewArena(f, 8<<20)
	n0, n1 := f.Node(0), f.Node(1)
	tr := ds.NewRadixTree(f, a.NodeAllocator(n0, 0))
	const key = 0x0a0b0c0d
	levels := uint64(tr.Levels())
	// Absent at the root, then absent only at the leaf table's level.
	if v, atomics, _ := getCost(tr, n0, key); v != 0 || atomics != 1 {
		t.Fatalf("Get on an empty tree = %d with %d atomics, want 0 with 1", v, atomics)
	}
	tr.Put(n1, a.NodeAllocator(n1, 0), key+0x100, 1) // the next prefix over
	if v, atomics, _ := getCost(tr, n0, key); v != 0 || atomics != levels-1 {
		t.Fatalf("Get of an absent leaf table = %d with %d atomics, want 0 with %d", v, atomics, levels-1)
	}
	tr.Put(n1, a.NodeAllocator(n1, 0), key, 42)
	if v, atomics, _ := getCost(tr, n0, key); v != 42 || atomics != levels {
		t.Fatalf("Get after node 1's install = %d with %d atomics, want 42 with a full walk of %d", v, atomics, levels)
	}
	if v, atomics, _ := getCost(tr, n0, key); v != 42 || atomics != 1 {
		t.Fatalf("second Get = %d with %d atomics, want 42 with 1", v, atomics)
	}
}

// racingAlloc runs race once, inside the first Alloc: between the walk's
// load of an empty slot and its install CAS.
type racingAlloc struct {
	ds.Allocator
	race func()
}

func (r *racingAlloc) Alloc(size uint64) fabric.GPtr {
	if race := r.race; race != nil {
		r.race = nil
		race()
	}
	return r.Allocator.Alloc(size)
}

// TestRadixWalkLostInstallRaceCachesWinner: node 1 finds the leaf table
// missing, and node 0 installs it before node 1's CAS. Node 1 must cache
// and write into node 0's table, not the fresh one it failed to publish.
func TestRadixWalkLostInstallRaceCachesWinner(t *testing.T) {
	f := rack(t, 2, 16)
	a := alloc.NewArena(f, 8<<20)
	n0, n1 := f.Node(0), f.Node(1)
	a0 := a.NodeAllocator(n0, 0)
	tr := ds.NewRadixTree(f, a0)
	const mine, theirs = 0x01020304, 0x01020399 // one leaf table
	tr.Put(n0, a0, 0x01020504, 1)               // the interior levels above it
	ra := &racingAlloc{Allocator: a.NodeAllocator(n1, 0), race: func() { tr.Put(n0, a0, theirs, 7) }}
	tr.Put(n1, ra, mine, 5)
	if ra.race != nil {
		t.Fatal("node 1's Put allocated nothing: the race was not run")
	}
	if got := tr.Get(n0, mine); got != 5 {
		t.Fatalf("node 0 reads %d for node 1's key, want 5: node 1 wrote into the losing table", got)
	}
	if v, atomics, _ := getCost(tr, n1, theirs); v != 7 || atomics != 1 {
		t.Fatalf("node 1's warm Get of node 0's key = %d with %d atomics, want 7 with 1", v, atomics)
	}
}

// TestRadixWalkConcurrentSameNode: several CPUs of one node walk and fill
// one direct-mapped entry (sixteen prefixes share it) at once, and every
// read sees the table its own prefix owns.
func TestRadixWalkConcurrentSameNode(t *testing.T) {
	const cpus, perCPU, prefixes = 4, 256, 16
	f := rack(t, 2, 64)
	a := alloc.NewArena(f, 48<<20)
	n := f.Node(0)
	tr := ds.NewRadixTree(f, a.NodeAllocator(n, 0))
	key := func(cpu, i int) uint64 {
		prefix := uint64(i%prefixes)*ds.WalkEntries + 3
		return prefix<<8 | uint64(cpu*perCPU/prefixes+i/prefixes)
	}
	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			na := a.NodeAllocator(n, 0)
			for i := 0; i < perCPU; i++ {
				k := key(c, i)
				tr.Put(n, na, k, k+1)
				if got := tr.Get(n, k); got != k+1 {
					t.Errorf("cpu %d: Get(%#x) = %d right after its Put", c, k, got)
					return
				}
				other := key((c+1)%cpus, i)
				if v := tr.Get(n, other); v != 0 && v != other+1 {
					t.Errorf("cpu %d: Get(%#x) = %d, a value from another key", c, other, v)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, node := range []*fabric.Node{n, f.Node(1)} {
		for c := 0; c < cpus; c++ {
			for i := 0; i < perCPU; i++ {
				if k := key(c, i); tr.Get(node, k) != k+1 {
					t.Fatalf("node %d: Get(%#x) = %d, want %d", node.ID(), k, tr.Get(node, k), k+1)
				}
			}
		}
	}
}
