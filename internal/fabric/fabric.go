package fabric

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Config describes the simulated rack.
type Config struct {
	// GlobalSize is the size of global memory in bytes. Rounded up to a
	// multiple of LineSize. The first line is reserved so GPtr 0 means nil.
	GlobalSize uint64
	// Nodes is the number of compute nodes attached to the interconnect.
	Nodes int
	// CacheCapacityLines bounds each node's simulated cache. 0 selects the
	// default of 65536 lines (4 MiB, an L2-ish cache); negative means
	// unlimited (only sensible for small unit tests).
	CacheCapacityLines int
	// Latency is the cost model. Zero value disables latency charging.
	Latency LatencyModel
	// Hops gives each node's distance (interconnect hops) to home memory.
	// Nil means one hop for every node. Length must equal Nodes otherwise.
	Hops []int
	// FaultSeed seeds the deterministic fault injector.
	FaultSeed int64
}

// Fabric is the rack's memory interconnect: home global memory plus the
// per-node caches and the fault domain that sits between nodes and memory.
type Fabric struct {
	cfg   Config
	lat   LatencyModel
	home  []atomic.Pointer[chunk] // home memory, accessed only with atomic word ops
	size  uint64
	nodes []*Node

	reserveMu  sync.Mutex
	reserveOff uint64

	faults *FaultInjector
}

// New builds a rack fabric from cfg. It panics on nonsensical configuration
// (zero nodes, zero memory), since that is always a programming error.
func New(cfg Config) *Fabric {
	if cfg.Nodes <= 0 {
		panic("fabric: Config.Nodes must be positive")
	}
	if cfg.GlobalSize < 2*LineSize {
		panic("fabric: Config.GlobalSize too small")
	}
	size := AlignUp64(cfg.GlobalSize, LineSize)
	if cfg.Hops != nil && len(cfg.Hops) != cfg.Nodes {
		panic("fabric: Config.Hops length must equal Config.Nodes")
	}
	cacheCap := cfg.CacheCapacityLines
	switch {
	case cacheCap == 0:
		cacheCap = 65536 // 4 MiB per node
	case cacheCap < 0:
		cacheCap = 0 // unlimited
	}
	f := &Fabric{
		cfg:        cfg,
		lat:        cfg.Latency,
		home:       make([]atomic.Pointer[chunk], (size/WordSize+chunkMask)>>chunkShift),
		size:       size,
		reserveOff: LineSize, // line 0 reserved: GPtr 0 is nil
	}
	f.faults = newFaultInjector(cfg.FaultSeed)
	f.nodes = make([]*Node, cfg.Nodes)
	for i := range f.nodes {
		hops := 1
		if cfg.Hops != nil {
			hops = cfg.Hops[i]
		}
		f.nodes[i] = &Node{
			id:    i,
			fab:   f,
			hops:  hops,
			cache: newCache(cacheCap),
		}
	}
	return f
}

// Node returns the i'th node's view of the fabric.
func (f *Fabric) Node(i int) *Node { return f.nodes[i] }

// NumNodes returns the number of nodes attached to the fabric.
func (f *Fabric) NumNodes() int { return len(f.nodes) }

// Size returns the usable size of global memory in bytes.
func (f *Fabric) Size() uint64 { return f.size }

// Faults returns the fabric's fault injector.
func (f *Fabric) Faults() *FaultInjector { return f.faults }

// Latency returns the fabric's latency model.
func (f *Fabric) Latency() LatencyModel { return f.lat }

// Reserve carves size bytes (aligned to align, a power of two, at least
// LineSize recommended for independently-synchronized regions) out of global
// memory. It is the boot-time allocator used to lay out static kernel
// regions; dynamic allocation is built above it by flacdk/alloc. Reserve
// panics when global memory is exhausted: static layout overflow is a
// configuration error, not a runtime condition.
func (f *Fabric) Reserve(size, align uint64) GPtr {
	if align == 0 {
		align = WordSize
	}
	if align&(align-1) != 0 {
		panic("fabric: Reserve alignment must be a power of two")
	}
	f.reserveMu.Lock()
	defer f.reserveMu.Unlock()
	off := AlignUp64(f.reserveOff, align)
	if off+size > f.size {
		panic(fmt.Sprintf("fabric: Reserve(%d, %d): global memory exhausted (%d of %d used)",
			size, align, f.reserveOff, f.size))
	}
	f.reserveOff = off + size
	return GPtr(off)
}

// checkRange panics unless [g, g+n) lies inside global memory and g != nil.
func (f *Fabric) checkRange(g GPtr, n uint64) {
	if g.IsNil() {
		panic("fabric: nil GPtr dereference")
	}
	if uint64(g)+n > f.size || uint64(g)+n < uint64(g) {
		panic(fmt.Sprintf("fabric: access [%v,+%d) outside global memory of %d bytes", g, n, f.size))
	}
}

// Home memory is a table of fixed-size chunks, each allocated the first
// time something nonzero is written into it. A chunk that was never
// written reads as zero and costs one nil pointer, so a rack's host
// footprint is what its workload touches, not what it configures. A chunk
// is 1 MiB: it is line-aligned, so no line straddles two chunks and a line
// transfer looks its chunk up once, and it is large enough that a workload
// touching fresh memory inside its measured ops (a cold container start
// writes 4 MiB of frames) pays a handful of chunk allocations per op, not
// dozens.
const (
	chunkShift = 17 // words per chunk, log2
	chunkWords = 1 << chunkShift
	chunkMask  = chunkWords - 1
	lineWords  = LineSize / WordSize
)

type chunk [chunkWords]uint64

// chunkAt returns the chunk holding word w, or nil if nothing nonzero was
// ever written into it.
func (f *Fabric) chunkAt(w uint64) *chunk { return f.home[w>>chunkShift].Load() }

// installChunk returns the chunk holding word w, allocating it on first
// use with one CAS on its pointer; a loser adopts the winner's chunk.
func (f *Fabric) installChunk(w uint64) *chunk {
	p := &f.home[w>>chunkShift]
	if c := p.Load(); c != nil {
		return c
	}
	if c := new(chunk); p.CompareAndSwap(nil, c) {
		return c
	}
	return p.Load()
}

// homeWord returns word w's address, installing its chunk: the target of
// every read-modify-write on home memory.
func (f *Fabric) homeWord(w uint64) *uint64 { return &f.installChunk(w)[w&chunkMask] }

// homeLoadWord reads one aligned word from home memory.
func (f *Fabric) homeLoadWord(w uint64) uint64 {
	if c := f.chunkAt(w); c != nil {
		return atomic.LoadUint64(&c[w&chunkMask])
	}
	return 0
}

// homeStoreWord writes one aligned word to home memory. Zero into a chunk
// that was never written stores nothing: the word already reads as zero.
func (f *Fabric) homeStoreWord(w uint64, v uint64) {
	c := f.chunkAt(w)
	if c == nil {
		if v == 0 {
			return
		}
		c = f.installChunk(w)
	}
	atomic.StoreUint64(&c[w&chunkMask], v)
}

// homeLine returns the home words of line li, or nil when install is false
// and the line's chunk was never written.
func (f *Fabric) homeLine(li uint64, install bool) *[lineWords]uint64 {
	w := li * lineWords
	c := f.chunkAt(w)
	if c == nil {
		if !install {
			return nil
		}
		c = f.installChunk(w)
	}
	return (*[lineWords]uint64)(c[w&chunkMask:])
}

// fetchLineHome copies the line with index li from home memory into dst.
// Words are read in DESCENDING order, the reader's half of the line
// publication contract in doc.go: a fetch that sees a line's last word
// as new sees every earlier word at least as new.
func (f *Fabric) fetchLineHome(li uint64, dst *[LineSize]byte) {
	ws := f.homeLine(li, false)
	if ws == nil {
		*dst = [LineSize]byte{}
		return
	}
	for w := lineWords - 1; w >= 0; w-- {
		binary.LittleEndian.PutUint64(dst[w*WordSize:], atomic.LoadUint64(&ws[w]))
	}
}

// storeLineHome writes src to line li with no fault injection. Words land
// in ASCENDING order, the writer's half of the line publication contract
// in doc.go. An all-zero line into a chunk that was never written stores
// nothing, and a word that already holds its new value is not stored
// again: no reader can tell either from a store, and a load costs the host
// a fraction of an atomic store.
func (f *Fabric) storeLineHome(li uint64, src *[LineSize]byte) {
	ws := f.homeLine(li, false)
	if ws == nil {
		if *src == [LineSize]byte{} {
			return
		}
		ws = f.homeLine(li, true)
	}
	for w := range ws {
		if v := binary.LittleEndian.Uint64(src[w*WordSize:]); atomic.LoadUint64(&ws[w]) != v {
			atomic.StoreUint64(&ws[w], v)
		}
	}
}

// writeLineHome copies src into home memory at line index li, applying any
// write-path fault injection, and returns how many injector hits the line
// took (1 for a dropped line, 1 per corrupted word) so the node can
// account them. Words land in ASCENDING order, as storeLineHome's do.
func (f *Fabric) writeLineHome(li uint64, src *[LineSize]byte) (faults uint64) {
	if f.faults.dropWriteBack() {
		return 1 // the line silently never reaches home memory
	}
	if f.faults.corruptRate.Load() == 0 {
		// Fast path: with corruption disarmed the injector draws nothing
		// from its PRNG, so skipping the per-word roll is observationally
		// identical — and saves eight atomic rate loads per line.
		f.storeLineHome(li, src)
		return 0
	}
	base := li * lineWords
	for w := uint64(0); w < lineWords; w++ {
		v := binary.LittleEndian.Uint64(src[w*WordSize:])
		if cv := f.faults.corruptOnWrite(v); cv != v {
			v = cv
			faults++
		}
		f.homeStoreWord(base+w, v)
	}
	return faults
}

// faultsArmed reports whether either write-path injector rate is set. A
// batch of line writes asks ONCE instead of once per line per word: the
// injector draws nothing from its PRNG at rate zero, so the disarmed fast
// path is observationally identical to per-line commits, just cheaper.
func (f *Fabric) faultsArmed() bool {
	return f.faults.dropRate.Load() != 0 || f.faults.corruptRate.Load() != 0
}

// commitLine writes one line of a batch home: straight with the injector
// disarmed, through writeLineHome's drop and corrupt draws when armed.
func (f *Fabric) commitLine(li uint64, src *[LineSize]byte, armed bool) (faults uint64) {
	if !armed {
		f.storeLineHome(li, src)
		return 0
	}
	return f.writeLineHome(li, src)
}

// writeLinesHome commits a harvested write-back batch to home memory in
// buf order (callers pass ascending line index — load-bearing for the
// fault injector's deterministic replay and trace's sequence-last line
// commit), so every drop/corrupt draw happens in the same order as the
// per-line path.
func (f *Fabric) writeLinesHome(buf []wbEntry) (faults uint64) {
	armed := f.faultsArmed()
	for i := range buf {
		faults += f.commitLine(buf[i].li, &buf[i].data, armed)
	}
	return faults
}

// ReadAtHome copies home-memory contents into buf, bypassing every cache.
// It is the fabric's "device scrub" path, used by the reliability scrubber
// and by tests to observe ground truth; regular code must go through a Node.
func (f *Fabric) ReadAtHome(g GPtr, buf []byte) {
	f.checkRange(g, uint64(len(buf)))
	for i := range buf {
		w := (uint64(g) + uint64(i)) / WordSize
		sh := ((uint64(g) + uint64(i)) % WordSize) * 8
		buf[i] = byte(f.homeLoadWord(w) >> sh)
	}
}

// WriteAtHome stores buf directly into home memory, bypassing caches and
// fault injection. It models out-of-band provisioning (e.g. the BIOS or a
// storage device DMA-ing initial contents) and is also used by tests.
func (f *Fabric) WriteAtHome(g GPtr, buf []byte) {
	f.checkRange(g, uint64(len(buf)))
	i := 0
	for i < len(buf) {
		addr := uint64(g) + uint64(i)
		w := addr / WordSize
		sh := (addr % WordSize) * 8
		// Read-modify-write one byte at a time; fine for a provisioning path.
		if buf[i] != 0 || f.chunkAt(w) != nil {
			p := f.homeWord(w)
			for {
				old := atomic.LoadUint64(p)
				neu := (old &^ (uint64(0xff) << sh)) | uint64(buf[i])<<sh
				if atomic.CompareAndSwapUint64(p, old, neu) {
					break
				}
			}
		}
		i++
	}
}
