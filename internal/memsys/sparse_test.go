package memsys

import (
	"bytes"
	"runtime"
	"testing"

	"flacos/internal/fabric"
)

// The frame region is sparse (fabric.ReserveSparse), so a frame costs the
// host what it holds, not its page. These tests pin that promise from the
// frame table's side; what a block costs is fabric's to pin.

// heapGrowth returns how many heap bytes f allocated.
func heapGrowth(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestSparseFramesOneRecordIsCheap: 4096 frames that each get one 64-byte
// record, reservation included, cost the host less than a quarter of a
// page each, not the 16 MiB of pages around them.
func TestSparseFramesOneRecordIsCheap(t *testing.T) {
	const frames = 4096
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	n := f.Node(0)
	var gf *GlobalFrames
	dir := heapGrowth(func() { gf = NewGlobalFrames(f, frames) })
	phys := make([]uint64, frames)
	for i := range phys {
		phys[i] = gf.AllocUninit(n)
	}
	record := bytes.Repeat([]byte{0x5a}, fabric.LineSize)
	recs := heapGrowth(func() {
		for _, p := range phys {
			n.WriteFresh(fabric.GPtr(p), record)
		}
	})
	if budget := uint64(frames * PageSize / 4); dir+recs > budget {
		t.Fatalf("%d one-record frames cost %d heap bytes (%d at reservation), want at most %d",
			frames, dir+recs, dir, budget)
	}
	got := make([]byte, PageSize)
	f.ReadAtHome(fabric.GPtr(phys[frames/2]), got)
	if !bytes.Equal(got[:fabric.LineSize], record) || !bytes.Equal(got[fabric.LineSize:], make([]byte, PageSize-fabric.LineSize)) {
		t.Fatal("a one-record frame reads wrong at home")
	}
}

// TestSparseFramesDenseWriteAllocatesPerMiB: filling 4 MiB of fresh frames
// (a page-cache install's pattern) makes at most five allocations, one per
// MiB as a dense region takes. The count is the least of five tries on
// fresh racks: the runtime and the test binary's other goroutines can only
// add to it.
func TestSparseFramesDenseWriteAllocatesPerMiB(t *testing.T) {
	const frames = 1024
	page := bytes.Repeat([]byte{0xa5}, PageSize)
	least := uint64(1 << 62)
	for try := 0; try < 5; try++ {
		f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
		n := f.Node(0)
		gf := NewGlobalFrames(f, 2*frames)
		phys := make([]uint64, frames)
		for i := range phys {
			phys[i] = gf.AllocUninit(n)
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, p := range phys {
			n.WriteFresh(fabric.GPtr(p), page)
		}
		runtime.ReadMemStats(&b)
		least = min(least, b.Mallocs-a.Mallocs)
		got := make([]byte, PageSize)
		f.ReadAtHome(fabric.GPtr(phys[frames-1]), got)
		if !bytes.Equal(got, page) {
			t.Fatal("the last frame reads wrong at home")
		}
	}
	if least > 5 {
		t.Fatalf("a 4 MiB dense write into fresh frames made %d allocations, want at most 5", least)
	}
}

// TestSparseFramesZeroPageCopyInstallsNothing: copying an all-zero page
// into 64 fresh frames (a demotion or migration of pages never written)
// costs the host less than one page in all, and the frames read zero.
func TestSparseFramesZeroPageCopyInstallsNothing(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	n := f.Node(1)
	gf := NewGlobalFrames(f, 256)
	phys := make([]uint64, 64)
	for i := range phys {
		phys[i] = gf.AllocUninit(n)
	}
	b := heapGrowth(func() {
		for _, p := range phys {
			n.WriteFresh(fabric.GPtr(p), zeroPage[:])
		}
	})
	if b >= PageSize {
		t.Fatalf("64 all-zero page copies allocated %d heap bytes, want less than a page", b)
	}
	for _, p := range phys {
		readsZero(t, f, p, "zero page copy")
	}
}
