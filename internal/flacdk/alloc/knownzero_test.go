package alloc

import (
	"bytes"
	"testing"

	"flacos/internal/fabric"
)

// readsZero fails t unless the size bytes at g read zero at home and
// through every node of f.
func readsZero(t *testing.T, f *fabric.Fabric, g fabric.GPtr, size uint64, what string) {
	t.Helper()
	zero := make([]byte, size)
	buf := make([]byte, size)
	f.ReadAtHome(g, buf)
	if !bytes.Equal(buf, zero) {
		t.Fatalf("%s: block %v is not zero at home", what, g)
	}
	for i := 0; i < f.NumNodes(); i++ {
		f.Node(i).Read(g, buf)
		if !bytes.Equal(buf, zero) {
			t.Fatalf("%s: block %v is not zero through node %d", what, g, i)
		}
	}
}

// TestNodeAllocatorKnownZeroFresh: blocks carved from a slab the node just
// grabbed are known zero, so Alloc writes nothing into them, and a reserve
// block costs no fabric op at all. Each still reads zero everywhere.
func TestNodeAllocatorKnownZeroFresh(t *testing.T) {
	f, a := arena(t, 2, 2)
	n := f.Node(0)
	na := a.NodeAllocator(n, 0)
	for i := 0; i < 4; i++ {
		before := n.Stats()
		g := na.Alloc(4096)
		d := n.Stats().Delta(before)
		if d.Stores != 0 || d.WriteBacks != 0 || d.Invalidates != 0 || d.BulkBytesWritten != 0 {
			t.Fatalf("Alloc #%d of fresh block %v wrote: %+v", i, g, d)
		}
		if i > 0 && d != (fabric.NodeStatsSnapshot{}) {
			t.Fatalf("Alloc #%d from the reserve touched the fabric: %+v", i, d)
		}
		readsZero(t, f, g, 4096, "fresh")
	}
}

// TestNodeAllocatorKnownZeroRecycled: a magazine block whose lines sit dirty
// in the allocating node's cache is zero-filled by Alloc with one
// write-back of all its lines.
func TestNodeAllocatorKnownZeroRecycled(t *testing.T) {
	f, a := arena(t, 2, 2)
	n := f.Node(0)
	na := a.NodeAllocator(n, 0)
	g := na.Alloc(4096)
	n.Write(g, bytes.Repeat([]byte{0xa5}, 4096))
	na.Free(g)

	before := n.Stats()
	if again := na.Alloc(4096); again != g {
		t.Fatalf("recycled %v, want %v", again, g)
	}
	if d := n.Stats().Delta(before); d.WriteBacks != 4096/fabric.LineSize {
		t.Fatalf("zero fill wrote back %d lines, want %d", d.WriteBacks, 4096/fabric.LineSize)
	}
	readsZero(t, f, g, 4096, "recycled")
}

// TestNodeAllocatorAllocNoBlockBuffer: Alloc zero-fills a recycled block from
// the one shared zero block, so a block dirtied, freed and allocated again
// costs no allocation once the node's cache-line objects are warm.
func TestNodeAllocatorAllocNoBlockBuffer(t *testing.T) {
	f, a := arena(t, 1, 2)
	n := f.Node(0)
	na := a.NodeAllocator(n, 0)
	dirty := bytes.Repeat([]byte{0xa5}, 4096)
	cycle := func() {
		g := na.Alloc(4096)
		n.Write(g, dirty)
		na.Free(g)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("Alloc of a dirty recycled block made %v allocations, want 0", allocs)
	}
}
