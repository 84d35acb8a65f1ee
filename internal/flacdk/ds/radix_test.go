package ds_test

import (
	"sync"
	"testing"
	"testing/quick"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/ds"
)

// The radix tree's tests allocate from flacdk/alloc, which publishes with
// ds's primitives, so they live in the external test package.

func rack(t *testing.T, nodes int, mb uint64) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: mb << 20, Nodes: nodes})
}

func TestRadixTreeBasics(t *testing.T) {
	f := rack(t, 2, 16)
	a := alloc.NewArena(f, 8<<20)
	na := a.NodeAllocator(f.Node(0), 0)
	tr := ds.NewRadixTree(f, na)
	n0, n1 := f.Node(0), f.Node(1)

	if tr.Get(n0, 0xdead) != 0 {
		t.Fatal("empty tree should return 0")
	}
	if prev := tr.Put(n0, na, 0xdead, 111); prev != 0 {
		t.Fatalf("Put prev = %d", prev)
	}
	if got := tr.Get(n1, 0xdead); /* cross-node */ got != 111 {
		t.Fatalf("cross-node Get = %d", got)
	}
	if prev := tr.Put(n1, a.NodeAllocator(n1, 0), 0xdead, 222); prev != 111 {
		t.Fatalf("overwrite prev = %d", prev)
	}
	if prev := tr.Delete(n0, 0xdead); prev != 222 {
		t.Fatalf("Delete prev = %d", prev)
	}
	if tr.Get(n0, 0xdead) != 0 {
		t.Fatal("deleted key still present")
	}
}

func TestRadixTreeCAS(t *testing.T) {
	f := rack(t, 1, 16)
	a := alloc.NewArena(f, 8<<20)
	na := a.NodeAllocator(f.Node(0), 0)
	tr := ds.NewRadixTree(f, na)
	n := f.Node(0)
	if !tr.CompareAndSwap(n, na, 9, 0, 5) {
		t.Fatal("CAS on empty slot failed")
	}
	if tr.CompareAndSwap(n, na, 9, 0, 7) {
		t.Fatal("CAS with stale old succeeded")
	}
	if !tr.CompareAndSwap(n, na, 9, 5, 7) {
		t.Fatal("CAS with correct old failed")
	}
	if tr.Get(n, 9) != 7 {
		t.Fatalf("value = %d", tr.Get(n, 9))
	}
}

func TestRadixTreeKeyBoundsPanics(t *testing.T) {
	f := rack(t, 1, 16)
	a := alloc.NewArena(f, 8<<20)
	na := a.NodeAllocator(f.Node(0), 0)
	tr := ds.NewRadixTree(f, na)
	defer func() {
		if recover() == nil {
			t.Fatal("key beyond keyspace should panic")
		}
	}()
	tr.Get(f.Node(0), 1<<32)
}

func TestRadixTreeConcurrentInstall(t *testing.T) {
	const nodes, perNode = 4, 200
	f := rack(t, nodes, 64)
	a := alloc.NewArena(f, 48<<20)
	tr := ds.NewRadixTree(f, a.NodeAllocator(f.Node(0), 0))
	var wg sync.WaitGroup
	for w := 0; w < nodes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := f.Node(w)
			na := a.NodeAllocator(n, 0)
			for i := 0; i < perNode; i++ {
				key := uint64(w)<<20 | uint64(i)*7919
				tr.Put(n, na, key, key+1)
			}
		}(w)
	}
	wg.Wait()
	n := f.Node(0)
	for w := 0; w < nodes; w++ {
		for i := 0; i < perNode; i++ {
			key := uint64(w)<<20 | uint64(i)*7919
			if got := tr.Get(n, key); got != key+1 {
				t.Fatalf("key %#x = %d, want %d", key, got, key+1)
			}
		}
	}
}

func TestRadixTreeQuickVsModel(t *testing.T) {
	f := rack(t, 1, 64)
	a := alloc.NewArena(f, 48<<20)
	n := f.Node(0)
	na := a.NodeAllocator(n, 0)
	tr := ds.NewRadixTree(f, na)
	model := map[uint64]uint64{}
	prop := func(key uint32, val uint32) bool {
		k := uint64(key) % (1 << 24)
		if k == 0 {
			k = 1
		}
		v := uint64(val) + 1
		tr.Put(n, na, k, v)
		model[k] = v
		return tr.Get(n, k) == model[k]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for k, want := range model {
		if got := tr.Get(n, k); got != want {
			t.Fatalf("key %#x = %d want %d", k, got, want)
		}
	}
}

func BenchmarkRadixPutGet(b *testing.B) {
	f := fabric.New(fabric.Config{GlobalSize: 256 << 20, Nodes: 1})
	a := alloc.NewArena(f, 192<<20)
	n := f.Node(0)
	na := a.NodeAllocator(n, 0)
	tr := ds.NewRadixTree(f, na)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%100_000)*7919 + 1
		tr.Put(n, na, k, uint64(i)+1)
		tr.Get(n, k)
	}
}
