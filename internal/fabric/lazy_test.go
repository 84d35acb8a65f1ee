package fabric

import (
	"runtime"
	"sync"
	"testing"
)

// Home memory is allocated a chunk at a time, on the first nonzero write
// into the chunk. These tests pin what that promises: an untouched span
// costs nothing to build or to read, zeros never allocate, the first real
// write allocates one chunk, and racing first writers agree on it.

// heapGrowth returns how many heap bytes f allocated.
func heapGrowth(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// installedChunks counts the chunks f's home memory has allocated.
func installedChunks(f *Fabric) int {
	n := 0
	for i := range f.home {
		if f.home[i].Load() != nil {
			n++
		}
	}
	return n
}

func newLazyFabric(size uint64) *Fabric {
	return New(Config{GlobalSize: size, Nodes: 2, CacheCapacityLines: -1, Latency: DefaultLatency()})
}

func TestLazyNewCostsNoHomeMemory(t *testing.T) {
	var f *Fabric
	if b := heapGrowth(func() { f = newLazyFabric(1 << 30) }); b >= 64<<10 {
		t.Fatalf("New(1 GiB) allocated %d bytes of heap, want < 64 KiB", b)
	}
	if got := installedChunks(f); got != 0 {
		t.Fatalf("%d chunks installed by New, want 0", got)
	}
	runtime.KeepAlive(f)
}

func TestLazyUntouchedReadsAreFreeZeros(t *testing.T) {
	f := newLazyFabric(64 << 20)
	n := f.Node(0)
	g := f.Reserve(4*chunkWords*WordSize, chunkWords*WordSize)
	buf := make([]byte, 3*LineSize)
	allocs := testing.AllocsPerRun(50, func() {
		if v := n.AtomicLoad64(g.Add(chunkWords * WordSize)); v != 0 {
			t.Fatalf("AtomicLoad64 of untouched memory = %#x", v)
		}
		// Both of these straddle a chunk boundary.
		n.ReadFresh(g.Add(2*chunkWords*WordSize-LineSize), buf)
		f.ReadAtHome(g.Add(3*chunkWords*WordSize-5), buf)
	})
	if allocs != 0 {
		t.Fatalf("reads of untouched memory made %v allocations, want 0", allocs)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("untouched byte %d reads %#x", i, b)
		}
	}
	// A cached load misses and inserts a line object; what it reads is
	// still zero and it installs no chunk.
	if v := n.Load64(g.Add(8)); v != 0 {
		t.Fatalf("Load64 of untouched memory = %#x", v)
	}
	if got := installedChunks(f); got != 0 {
		t.Fatalf("reads installed %d chunks, want 0", got)
	}
}

func TestLazyZeroWritesAllocateNothing(t *testing.T) {
	f := newLazyFabric(64 << 20)
	n := f.Node(0)
	g := f.Reserve(2*chunkWords*WordSize, chunkWords*WordSize)
	zeros := make([]byte, 4*LineSize)
	n.Write(g, zeros) // warm the node's cache-line objects
	n.FlushRange(g, uint64(len(zeros)))
	allocs := testing.AllocsPerRun(50, func() {
		n.AtomicStore64(g.Add(64), 0)
		n.Write(g.Add(chunkWords*WordSize), zeros)
		n.FlushRange(g.Add(chunkWords*WordSize), uint64(len(zeros)))
		f.WriteAtHome(g.Add(3), zeros[:9])
	})
	if allocs != 0 {
		t.Fatalf("zero writes into untouched chunks made %v allocations, want 0", allocs)
	}
	if got := installedChunks(f); got != 0 {
		t.Fatalf("zero writes installed %d chunks, want 0", got)
	}
}

func TestLazyFirstNonzeroStoreInstallsOneChunk(t *testing.T) {
	f := newLazyFabric(64 << 20)
	n := f.Node(1)
	g := f.Reserve(2*chunkWords*WordSize, chunkWords*WordSize)
	last := g.Add(chunkWords*WordSize - WordSize) // the chunk's last word
	// Bytes, not allocations: a chunk is one, and the runtime's own
	// bookkeeping around a collection can add a few KiB.
	if b := heapGrowth(func() { n.AtomicStore64(last, 42) }); b < chunkWords*WordSize || b >= 2*chunkWords*WordSize {
		t.Fatalf("first nonzero store allocated %d bytes, want one %d-byte chunk", b, chunkWords*WordSize)
	}
	if got := installedChunks(f); got != 1 {
		t.Fatalf("%d chunks installed, want 1", got)
	}
	if a := testing.AllocsPerRun(10, func() { n.Add64(g, 1); n.CAS64(g.Add(8), 0, 7); n.Swap64(g.Add(16), 9) }); a != 0 {
		t.Fatalf("writes into an installed chunk made %v allocations", a)
	}
	if v := n.AtomicLoad64(last); v != 42 {
		t.Fatalf("stored word reads %d", v)
	}
	// The next chunk starts on the next line: still untouched, still free.
	if v := n.AtomicLoad64(last.Add(WordSize)); v != 0 || installedChunks(f) != 1 {
		t.Fatalf("neighbour chunk: word %d, %d chunks installed", v, installedChunks(f))
	}
}

// TestLazyZeroOverwritesWrittenMemory: only a chunk that was never
// written may skip a zero. Once installed, zeros land like any value.
func TestLazyZeroOverwritesWrittenMemory(t *testing.T) {
	f := newLazyFabric(64 << 20)
	n := f.Node(0)
	g := f.Reserve(4*LineSize, LineSize)
	ones := []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	n.Write(g, ones)
	n.WriteBackRange(g, LineSize)
	n.AtomicStore64(g.Add(LineSize), 7)
	f.WriteAtHome(g.Add(2*LineSize), ones)

	n.Write(g, make([]byte, LineSize)) // a whole zero line, written back
	n.WriteBackRange(g, LineSize)
	n.AtomicStore64(g.Add(LineSize), 0)
	f.WriteAtHome(g.Add(2*LineSize+3), make([]byte, 5))
	got := make([]byte, 3*LineSize)
	f.ReadAtHome(g, got)
	for i, b := range got {
		want := byte(0)
		if off := i - 2*LineSize; off >= 0 && off < len(ones) && (off < 3 || off >= 8) {
			want = 1
		}
		if b != want {
			t.Fatalf("home byte %d = %d after zeros were written, want %d", i, b, want)
		}
	}
}

// TestLazyRacingFirstStoresInstallOneChunk: eight goroutines make the
// first writes into one chunk at once, half with plain stores written back
// and half with Add64. One chunk wins; a loser that installed its own
// would lose the winner's values.
func TestLazyRacingFirstStoresInstallOneChunk(t *testing.T) {
	const workers, perWorker = 8, 64
	for round := 0; round < 20; round++ {
		f := New(Config{GlobalSize: 4 << 20, Nodes: workers, CacheCapacityLines: -1})
		g := f.Reserve(2*chunkWords*WordSize, chunkWords*WordSize)
		counter := g.Add(chunkWords * WordSize / 2)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				n := f.Node(w)
				start.Wait()
				for i := 0; i < perWorker; i++ {
					slot := g.Add(uint64(w*perWorker+i) * LineSize)
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
		if got := installedChunks(f); got != 1 {
			t.Fatalf("round %d: %d chunks installed, want 1", round, got)
		}
		n := f.Node(0)
		if v := n.AtomicLoad64(counter); v != workers*perWorker {
			t.Fatalf("round %d: counter = %d, want %d", round, v, workers*perWorker)
		}
		for w := 0; w < workers; w++ {
			for i := 0; i < perWorker; i++ {
				if v := n.AtomicLoad64(g.Add(uint64(w*perWorker+i) * LineSize)); v != uint64(w<<16|i)+1 {
					t.Fatalf("round %d: worker %d store %d reads %#x", round, w, i, v)
				}
			}
		}
	}
}
