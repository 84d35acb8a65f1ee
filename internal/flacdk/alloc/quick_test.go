package alloc

import (
	"bytes"
	"testing"
	"testing/quick"

	"flacos/internal/fabric"
)

func clampSize(raw uint16) uint64 {
	s := uint64(raw) % MaxAlloc
	return s + 1
}

func pattern(seed byte, n uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed*31 + byte(i)*7 + 3
	}
	return b
}

// TestAllocQuickSlabInvariants: for random size mixes allocated from every
// node, size-class slab carving must give line-aligned, non-overlapping
// blocks of at least the requested size, and content written to one block
// never bleeds into another.
func TestAllocQuickSlabInvariants(t *testing.T) {
	prop := func(sizesRaw []uint16) bool {
		if len(sizesRaw) > 64 {
			sizesRaw = sizesRaw[:64]
		}
		const nodes = 2
		f, a := arena(t, nodes, 32)
		as := make([]*NodeAllocator, nodes)
		for i := range as {
			as[i] = a.NodeAllocator(f.Node(i), 4)
		}
		type block struct {
			g    fabric.GPtr
			cs   uint64
			node int
			seed byte
		}
		var live []block
		for i, raw := range sizesRaw {
			size := clampSize(raw)
			cs := ClassSize(size)
			ni := i % nodes
			g := as[ni].AllocUninit(size)
			if uint64(g)%fabric.LineSize != 0 {
				t.Logf("block %#x not line-aligned", g)
				return false
			}
			if cs < size {
				t.Logf("class %d smaller than request %d", cs, size)
				return false
			}
			for _, b := range live {
				if uint64(g) < uint64(b.g)+b.cs && uint64(b.g) < uint64(g)+cs {
					t.Logf("block [%#x,+%d) overlaps live [%#x,+%d)", g, cs, b.g, b.cs)
					return false
				}
			}
			seed := byte(i + 1)
			n := f.Node(ni)
			n.Write(g, pattern(seed, cs))
			n.WriteBackRange(g, cs)
			live = append(live, block{g: g, cs: cs, node: ni, seed: seed})
		}
		buf := make([]byte, MaxAlloc)
		for _, b := range live {
			n := f.Node(b.node)
			n.InvalidateRange(b.g, b.cs)
			n.Read(b.g, buf[:b.cs])
			if !bytes.Equal(buf[:b.cs], pattern(b.seed, b.cs)) {
				t.Logf("block %#x content scribbled by a neighbor", b.g)
				return false
			}
		}
		for _, b := range live {
			as[b.node].Free(b.g)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
