package memsys

import (
	"bytes"
	"testing"

	"flacos/internal/fabric"
)

// readsZero fails t unless the frame at phys reads zero at home and through
// every node of f.
func readsZero(t *testing.T, f *fabric.Fabric, phys uint64, what string) {
	t.Helper()
	zero := make([]byte, PageSize)
	buf := make([]byte, PageSize)
	f.ReadAtHome(fabric.GPtr(phys), buf)
	if !bytes.Equal(buf, zero) {
		t.Fatalf("%s: frame %#x is not zero at home", what, phys)
	}
	for i := 0; i < f.NumNodes(); i++ {
		f.Node(i).Read(fabric.GPtr(phys), buf)
		if !bytes.Equal(buf, zero) {
			t.Fatalf("%s: frame %#x is not zero through node %d", what, phys, i)
		}
	}
}

// TestGlobalFramesKnownZeroFresh: a frame the bump path hands out for the
// first time is known zero, so Alloc writes nothing into it — no store, no
// write-back, no invalidate, no bulk byte — and it still reads zero from
// every node and at home.
func TestGlobalFramesKnownZeroFresh(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 4, Latency: fabric.DefaultLatency()})
	frames := NewGlobalFrames(f, 256)
	for i := 0; i < 8; i++ {
		n := f.Node(i % f.NumNodes())
		before := n.Stats()
		phys := frames.Alloc(n)
		d := n.Stats().Delta(before)
		if d.Stores != 0 || d.WriteBacks != 0 || d.Invalidates != 0 || d.BulkBytesWritten != 0 {
			t.Fatalf("Alloc of fresh frame %#x wrote: %+v", phys, d)
		}
		readsZero(t, f, phys, "fresh")
	}
}

// TestGlobalFramesKnownZeroRecycled: a recycled frame whose lines sit dirty
// in the allocating node's cache, and whose word 0 holds the free-list
// link, is zero-filled by Alloc with one write-back of all its lines.
func TestGlobalFramesKnownZeroRecycled(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 2})
	frames := NewGlobalFrames(f, 256)
	n := f.Node(0)
	other, phys := frames.Alloc(n), frames.Alloc(n)
	n.Write(fabric.GPtr(phys), bytes.Repeat([]byte{0xa5}, PageSize))
	frames.Unref(n, other)
	frames.Unref(n, phys) // on top of other: phys's word 0 holds the link

	before := n.Stats()
	if again := frames.Alloc(n); again != phys {
		t.Fatalf("recycled %#x, want %#x", again, phys)
	}
	if d := n.Stats().Delta(before); d.WriteBacks != PageSize/fabric.LineSize {
		t.Fatalf("zero fill wrote back %d lines, want %d", d.WriteBacks, PageSize/fabric.LineSize)
	}
	readsZero(t, f, phys, "recycled")
}

// TestGlobalFramesKnownZeroUnderWriteFaults: write-path fault injection
// corrupts and drops only data being written, and Alloc writes none into
// a fresh frame, so with both injectors armed at high rates a fresh frame
// still reads zero.
func TestGlobalFramesKnownZeroUnderWriteFaults(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 2, FaultSeed: 7})
	frames := NewGlobalFrames(f, 256)
	f.Faults().SetCorruptionRate(500_000)
	f.Faults().SetDropWriteBackRate(500_000)
	for i := 0; i < 16; i++ {
		readsZero(t, f, frames.Alloc(f.Node(i%2)), "fresh under write faults")
	}
}
