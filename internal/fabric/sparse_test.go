package fabric

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// A ReserveSparse region installs home memory a block at a time. These
// tests pin what that promises: a page that holds one record costs one
// block, and racing first writers into one block agree on it. The dense
// promises (TestLazy*) hold for every other region.

// installedBlocks counts the blocks f's sparse regions have installed.
func installedBlocks(f *Fabric) int {
	s := f.sparse.Load()
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.dirs {
		if d := s.dirs[i].Load(); d != nil {
			for b := range d.blocks {
				if d.blocks[b].Load() != 0 {
					n++
				}
			}
		}
	}
	return n
}

// TestSparseOneRecordPerPageCostsOneBlock: 4096 pages of a sparse region
// that each get one 64-byte record cost the host 4096 blocks plus the
// directories of their MiBs, not the 16 MiB around them.
func TestSparseOneRecordPerPageCostsOneBlock(t *testing.T) {
	const pages, pageSize = 4096, 4096
	f := newLazyFabric(64 << 20)
	n := f.Node(0)
	record := bytes.Repeat([]byte{0x5a}, LineSize)
	var g GPtr
	b := heapGrowth(func() {
		g = f.ReserveSparse(pages * pageSize)
		for p := uint64(0); p < pages; p++ {
			n.WriteFresh(g.Add(p*pageSize), record)
		}
	})
	mibs := uint64(pages*pageSize/(chunkWords*WordSize) + 1) // the region is not MiB-aligned
	budget := pages*blockWords*WordSize + mibs*uint64(unsafe.Sizeof(blockDir{})) + 64<<10
	if b > budget {
		t.Fatalf("%d one-record pages cost %d heap bytes, want at most %d (one %d-byte block each plus the directory)",
			pages, b, budget, blockWords*WordSize)
	}
	if got := installedBlocks(f); got != pages {
		t.Fatalf("%d blocks installed, want %d", got, pages)
	}
	if got := installedChunks(f); got != 0 {
		t.Fatalf("%d chunks installed, want 0", got)
	}
	got := make([]byte, 2*LineSize)
	f.ReadAtHome(g.Add(7*pageSize), got)
	if !bytes.Equal(got[:LineSize], record) || !bytes.Equal(got[LineSize:], make([]byte, LineSize)) {
		t.Fatalf("page 7 reads %x at home", got)
	}
}

// TestSparseRacingFirstStoresInstallOneBlock: seven goroutines make the
// first writes into one sparse block at once, each into its own line, half
// with plain stores written back and half with fabric atomics, while all
// of them add to a counter on the block's last line. One block wins; a
// loser that installed its own would lose the winner's values.
func TestSparseRacingFirstStoresInstallOneBlock(t *testing.T) {
	const workers, perWorker = blockWords/lineWords - 1, 64
	for round := 0; round < 20; round++ {
		f := New(Config{GlobalSize: 4 << 20, Nodes: workers, CacheCapacityLines: -1})
		g := f.ReserveSparse(2 * blockWords * WordSize)
		counter := g.Add(workers * LineSize)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				n := f.Node(w)
				slot := g.Add(uint64(w) * LineSize)
				start.Wait()
				for i := 0; i < perWorker; i++ {
					if w%2 == 0 {
						n.Store64(slot, uint64(w<<16|i)+1)
						n.WriteBackRange(slot, WordSize)
					} else {
						n.AtomicStore64(slot, uint64(w<<16|i)+1)
					}
					n.Add64(counter, 1)
				}
			}(w)
		}
		start.Done()
		wg.Wait()
		if got := installedBlocks(f); got != 1 {
			t.Fatalf("round %d: %d blocks installed, want 1", round, got)
		}
		n := f.Node(0)
		if v := n.AtomicLoad64(counter); v != workers*perWorker {
			t.Fatalf("round %d: counter = %d, want %d", round, v, workers*perWorker)
		}
		for w := 0; w < workers; w++ {
			if v := n.AtomicLoad64(g.Add(uint64(w) * LineSize)); v != uint64(w<<16|(perWorker-1))+1 {
				t.Fatalf("round %d: worker %d's line reads %#x", round, w, v)
			}
		}
	}
}

// TestSparseSharedMiBs: a sparse reservation into a MiB a chunk already
// covers keeps the chunk; the regions sharing a MiB with a sparse region
// get blocks, as it does; a second sparse region sharing a directory gets
// blocks of its own; and blocks carved from one slab in any order read
// back what was stored into each.
func TestSparseSharedMiBs(t *testing.T) {
	f := newLazyFabric(64 << 20)
	n := f.Node(0)
	before := f.Reserve(LineSize, LineSize)
	n.AtomicStore64(before, 1) // installs chunk 0
	g := f.ReserveSparse(2 * chunkWords * WordSize)
	after := f.Reserve(LineSize, LineSize)
	second := f.ReserveSparse(2 * 4096) // shares the last MiB's directory
	stores := []struct {
		g GPtr
		v uint64
	}{
		{before, 1},
		{g, 2},                                 // chunk 0 covers it
		{after, 3},                             // a block of the last MiB
		{g.Add(chunkWords * WordSize), 4},      // a block of the second MiB
		{second.Add(4096), 5},                  // a block of the second region
		{after - blockWords*WordSize, 6},       // the block below after's
		{g.Add(chunkWords*WordSize + 4096), 7}, // carved after all of them
		{g.Add(chunkWords*WordSize + 8), 8},    // into block 4's
	}
	for _, s := range stores[1:] {
		n.AtomicStore64(s.g, s.v)
	}
	if c, b := installedChunks(f), installedBlocks(f); c != 1 || b != 5 {
		t.Fatalf("%d chunks and %d blocks installed, want 1 and 5", c, b)
	}
	for i, s := range stores {
		if v := n.AtomicLoad64(s.g); v != s.v {
			t.Fatalf("store %d reads %d, want %d", i, v, s.v)
		}
	}
}

// TestSparseZeroPageCopyInstallsNothing: copying an all-zero page into a
// fresh sparse page (a demotion or migration of a page never written)
// installs no block and allocates nothing; the first nonzero record after
// it installs one.
func TestSparseZeroPageCopyInstallsNothing(t *testing.T) {
	f := newLazyFabric(64 << 20)
	n := f.Node(1)
	g := f.ReserveSparse(16 * 4096)
	zero := make([]byte, 4096)
	if b := heapGrowth(func() { n.WriteFresh(g.Add(4096), zero) }); b != 0 {
		t.Fatalf("an all-zero page copy allocated %d heap bytes, want none", b)
	}
	if got := installedBlocks(f) + installedChunks(f); got != 0 {
		t.Fatalf("an all-zero page copy installed %d blocks or chunks, want none", got)
	}
	n.WriteFresh(g.Add(4096), []byte{1})
	if got := installedBlocks(f); got != 1 {
		t.Fatalf("a one-byte record installed %d blocks, want 1", got)
	}
}

// TestSparseDenseWriteAllocatesPerMiB: filling 4 MiB of a fresh sparse
// region carves 8192 blocks from at most five slabs, one allocation per
// MiB as chunks take. The count is the least of five tries on fresh
// fabrics: the runtime and the test binary's other goroutines can only
// add to it.
func TestSparseDenseWriteAllocatesPerMiB(t *testing.T) {
	page := bytes.Repeat([]byte{0xa5}, 4096)
	least := uint64(1 << 62)
	for try := 0; try < 5; try++ {
		f := newLazyFabric(64 << 20)
		n := f.Node(0)
		g := f.ReserveSparse(8 << 20)
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for p := uint64(0); p < 1024; p++ {
			n.WriteFresh(g.Add(p*4096), page)
		}
		runtime.ReadMemStats(&b)
		least = min(least, b.Mallocs-a.Mallocs)
		if got := installedBlocks(f); got != 8192 {
			t.Fatalf("%d blocks installed, want 8192", got)
		}
		got := make([]byte, 4096)
		f.ReadAtHome(g.Add(1023*4096), got)
		if !bytes.Equal(got, page) {
			t.Fatal("the last page reads wrong at home")
		}
	}
	if least > 5 {
		t.Fatalf("a 4 MiB dense write into a sparse region made %d allocations, want at most 5", least)
	}
}

// TestSparseRunsReadBack: a ranged read looks a page's blocks up together
// when they were carved one after another. Pages written a line at a time
// in turn, whose blocks interleave in the slabs, and a page whose blocks
// straddle two slabs read back what was written, through ReadFresh and a
// write-back of cached lines alike.
func TestSparseRunsReadBack(t *testing.T) {
	f := newLazyFabric(64 << 20)
	n := f.Node(0)
	g := f.ReserveSparse(8 << 20)
	pages := [3][]byte{}
	for p := range pages {
		pages[p] = make([]byte, 4096)
		for i := range pages[p] {
			pages[p][i] = byte(p*7+i) | 1
		}
	}
	// Pages 0 and 1, a line of each in turn.
	for off := uint64(0); off < 4096; off += LineSize {
		for p := uint64(0); p < 2; p++ {
			n.WriteFresh(g.Add(p*4096+off), pages[p][off:off+LineSize])
		}
	}
	// Fill the first slab to three blocks short of its end, so page 2's
	// blocks straddle the first two slabs.
	for b := installedBlocks(f); b < chunkBlocks-3; b++ {
		n.AtomicStore64(g.Add(1<<20+uint64(b)*blockWords*WordSize), 1)
	}
	n.Write(g.Add(2*4096), pages[2])
	n.WriteBackRange(g.Add(2*4096), 4096)
	got := make([]byte, 4096)
	for p := range pages {
		n.ReadFresh(g.Add(uint64(p)*4096), got)
		if !bytes.Equal(got, pages[p]) {
			t.Fatalf("page %d reads back wrong through ReadFresh", p)
		}
		f.ReadAtHome(g.Add(uint64(p)*4096), got)
		if !bytes.Equal(got, pages[p]) {
			t.Fatalf("page %d reads back wrong at home", p)
		}
	}
}

// TestSparseFirstWriteWholeOrNothing: node 1 polls a page with ReadFresh
// while node 0 writes it with WriteFresh into never-written blocks. A
// block is installed with its contents and published after them, so every
// 512-byte block of every poll reads all zero or all written.
func TestSparseFirstWriteWholeOrNothing(t *testing.T) {
	const page, block = 4096, blockWords * WordSize
	want := make([]byte, page)
	for i := range want {
		want[i] = byte(i*13) | 1
	}
	zero := make([]byte, block)
	for round := 0; round < 50; round++ {
		f := newLazyFabric(16 << 20)
		g := f.ReserveSparse(4 * page).Add(page)
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.Node(0).WriteFresh(g, want)
		}()
		got := make([]byte, page)
		for polls, finished := 0, false; !finished; polls++ {
			select {
			case <-done:
				finished = true // one more poll sees the whole page
			default:
			}
			f.Node(1).ReadFresh(g, got)
			for b := 0; b < page; b += block {
				if !bytes.Equal(got[b:b+block], zero) && !bytes.Equal(got[b:b+block], want[b:b+block]) {
					t.Fatalf("round %d, poll %d: block %d reads neither all zero nor all written", round, polls, b/block)
				}
			}
			runtime.Gosched()
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: the page reads wrong after the write", round)
		}
	}
}

// TestSparseFirstWritesRacingInstallOneBlock: two nodes write the two
// halves of the same never-written blocks at once with WriteFresh, so the
// first to reach a block installs it and the other finds it installed,
// sometimes only once it holds homeMu. Both writes land, in one block each.
func TestSparseFirstWritesRacingInstallOneBlock(t *testing.T) {
	const block = blockWords * WordSize
	for round := 0; round < 50; round++ {
		f := newLazyFabric(16 << 20)
		g := f.ReserveSparse(4 * block)
		halves := [2][]byte{bytes.Repeat([]byte{0xa1}, 2*block), bytes.Repeat([]byte{0xb2}, 2*block)}
		var wg sync.WaitGroup
		for w := range halves {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := uint64(0); b < 4; b += 2 {
					f.Node(w).WriteFresh(g.Add(b*block+uint64(w)*block/2), halves[w][:block/2])
				}
			}()
		}
		wg.Wait()
		if got := installedBlocks(f); got != 2 {
			t.Fatalf("round %d: %d blocks installed, want 2", round, got)
		}
		got := make([]byte, block)
		for b := uint64(0); b < 4; b += 2 {
			f.ReadAtHome(g.Add(b*block), got)
			if !bytes.Equal(got[:block/2], halves[0][:block/2]) || !bytes.Equal(got[block/2:], halves[1][:block/2]) {
				t.Fatalf("round %d: block %d reads %x", round, b, got)
			}
		}
	}
}
