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
	// FaultSeed seeds the deterministic fault injector.
	FaultSeed int64
}

// Fabric is the rack's memory interconnect: home global memory plus the
// per-node caches and the fault domain that sits between nodes and memory.
type Fabric struct {
	lat   LatencyModel
	home  []atomic.Pointer[chunk] // home memory, accessed only with atomic word ops
	size  uint64
	nodes []*Node

	reserveMu  sync.Mutex
	reserveOff uint64

	homeMu sync.Mutex // orders installs into home memory and sparse reservations
	sparse atomic.Pointer[sparseHome]

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
	cacheCap := cfg.CacheCapacityLines
	switch {
	case cacheCap == 0:
		cacheCap = 65536 // 4 MiB per node
	case cacheCap < 0:
		cacheCap = 0 // unlimited
	}
	f := &Fabric{
		lat:        cfg.Latency,
		home:       make([]atomic.Pointer[chunk], (size/WordSize+chunkMask)>>chunkShift),
		size:       size,
		reserveOff: LineSize, // line 0 reserved: GPtr 0 is nil
	}
	f.faults = newFaultInjector(cfg.FaultSeed)
	f.nodes = make([]*Node, cfg.Nodes)
	for i := range f.nodes {
		f.nodes[i] = &Node{
			id:    i,
			fab:   f,
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

// ReserveSparse is Reserve, 4 KiB-aligned, for a region most of whose
// lines stay zero — page frames that each hold a record. Home memory in a
// MiB such a region touches is installed a 512-byte block at a time, on
// the first nonzero store into the block, where elsewhere it is installed
// a 1 MiB chunk at a time; a MiB whose chunk is already installed keeps it.
func (f *Fabric) ReserveSparse(size uint64) GPtr {
	g := f.Reserve(size, 4096)
	if size == 0 {
		return g
	}
	f.homeMu.Lock()
	defer f.homeMu.Unlock()
	s := f.sparse.Load()
	if s == nil {
		s = &sparseHome{
			dirs:  make([]atomic.Pointer[blockDir], len(f.home)),
			slabs: make([]atomic.Pointer[chunk], len(f.home)),
		}
		f.sparse.Store(s)
	}
	for i := uint64(g) / WordSize >> chunkShift; i <= (uint64(g)+size-1)/WordSize>>chunkShift; i++ {
		if f.home[i].Load() == nil && s.dirs[i].Load() == nil {
			s.dirs[i].Store(&noBlocks)
			s.pending++
		}
	}
	return g
}

// Home memory is a table of 1 MiB chunks, each allocated the first time
// something nonzero is written into it. A chunk that was never written
// reads as zero and costs one nil pointer, so a rack's host footprint is
// what its workload touches, not what it configures. A MiB that a
// ReserveSparse region touches has a block directory instead, and its
// 512-byte blocks are installed one at a time, carved in first-touch order
// from shared 1 MiB slabs, so a dense writer still pays one allocation per
// MiB. A line written home whole installs a never-written block with its
// contents, and a WriteFresh's run of whole lines installs every block it
// lands in that way under one hold of homeMu (homeRun.store); a fabric
// atomic, WriteAtHome or a line that the corruption injector draws for
// installs a zero block and then stores into it. Chunks and blocks are
// line-aligned: no line straddles two, and a line transfer looks its
// memory up once. Everywhere else a chunk is the unit because a set-up
// that fills memory and an op that then first-touches a few words of it
// should not pay for blocks inside the op: `rackstore-write` does that
// 2,300 times a repetition.
const (
	chunkShift  = 17 // words per chunk, log2
	chunkWords  = 1 << chunkShift
	chunkMask   = chunkWords - 1
	blockShift  = 6 // words per block, log2
	blockWords  = 1 << blockShift
	blockMask   = blockWords - 1
	chunkBlocks = chunkWords / blockWords
	lineWords   = LineSize / WordSize
)

type chunk [chunkWords]uint64

// sparseHome is the home memory of the ReserveSparse regions, allocated by
// the first call: a block directory per MiB they touch, and the slabs their
// blocks are carved from. Each block is carved once, so the slabs never
// outnumber the chunks. A MiB's directory is noBlocks until its first
// block (allocating every directory at reservation made container-start's
// set-up 7% slower); the directories are allocated up to 128 (1 MiB) at a
// time, so first touches allocate about as often as dense ones, and never
// more than the reservations have MiBs waiting for one. Under homeMu:
// carved counts the blocks handed out, spare holds the directories
// allocated and not handed out, and pending counts the MiBs still at
// noBlocks.
type sparseHome struct {
	dirs    []atomic.Pointer[blockDir]
	slabs   []atomic.Pointer[chunk]
	carved  uint32
	spare   []blockDir
	pending int
}

// blockDir maps the blocks of one MiB to the slabs: block b is block
// blocks[b]-1 of the slabs taken in order, 0 until installed.
type blockDir struct {
	blocks [chunkBlocks]atomic.Uint32
}

// noBlocks is the directory of every sparse MiB with no block installed.
// It is only ever read.
var noBlocks blockDir

// chunkAt returns the chunk holding word w, or nil if w's MiB has none:
// nothing nonzero was ever written into it, or it is block-granular.
func (f *Fabric) chunkAt(w uint64) *chunk { return f.home[w>>chunkShift].Load() }

// homeAt returns home memory from word w to the end of its chunk or block:
// the one lookup behind every home access. Memory that was never written
// has none; homeAt installs it when install is set and returns nil
// otherwise. A chunk answers with one load.
func (f *Fabric) homeAt(w uint64, install bool) []uint64 {
	if c := f.chunkAt(w); c != nil {
		return c[w&chunkMask:]
	}
	return f.homeMiss(w, install)
}

// homeMiss is homeAt for a word whose MiB has no chunk: w's block, if the
// MiB has a directory.
func (f *Fabric) homeMiss(w uint64, install bool) []uint64 {
	var d *blockDir
	s := f.sparse.Load()
	if s != nil {
		d = s.dirs[w>>chunkShift].Load()
	}
	if d == nil {
		if !install {
			return nil
		}
		return f.installChunk(w)
	}
	i := w & chunkMask >> blockShift
	b := d.blocks[i].Load()
	if b == 0 {
		if !install {
			return nil
		}
		f.installBlock(s, w)
		return f.homeMiss(w, false)
	}
	// The blocks after w's in its 4 KiB that were carved right after it, as
	// a dense writer's are, lie right after it in its slab: one lookup
	// covers them.
	n := uint32(1)
	for (i+uint64(n))%8 != 0 && (b+n-1)%chunkBlocks != 0 && d.blocks[i+uint64(n)].Load() == b+n {
		n++
	}
	b--
	at := uint64(b%chunkBlocks) * blockWords
	return s.slabs[b/chunkBlocks].Load()[at|w&blockMask : at+uint64(n)*blockWords]
}

// Installs and sparse reservations serialize on homeMu, so racing first
// writers install one chunk or block, and no MiB gets both a chunk and a
// directory.

// installChunk installs the chunk holding word w, unless a racing writer
// did or a racing ReserveSparse gave its MiB a directory, and returns what
// homeAt then finds.
func (f *Fabric) installChunk(w uint64) []uint64 {
	f.homeMu.Lock()
	if s := f.sparse.Load(); f.chunkAt(w) == nil && (s == nil || s.dirs[w>>chunkShift].Load() == nil) {
		f.home[w>>chunkShift].Store(new(chunk))
	}
	f.homeMu.Unlock()
	return f.homeAt(w, true)
}

// installBlock installs word w's block, unless a racing writer did.
func (f *Fabric) installBlock(s *sparseHome, w uint64) {
	f.homeMu.Lock()
	defer f.homeMu.Unlock()
	if _, e, b := s.carve(w); e != nil {
		e.Store(b)
	}
}

// carve hands out the next block for word w under homeMu, giving w's MiB
// a directory first if it has none, and returns the block's words, its
// directory entry and the number that publishes it there. Until the entry
// is stored no other node can reach the block. The entry is nil if w's
// block is installed.
func (s *sparseHome) carve(w uint64) ([]uint64, *atomic.Uint32, uint32) {
	p := &s.dirs[w>>chunkShift]
	if p.Load() == &noBlocks {
		if len(s.spare) == 0 {
			s.spare = make([]blockDir, min(s.pending, 128))
		}
		p.Store(&s.spare[0])
		s.spare, s.pending = s.spare[1:], s.pending-1
	}
	e := &p.Load().blocks[w&chunkMask>>blockShift]
	if e.Load() != 0 {
		return nil, nil, 0
	}
	if s.carved%chunkBlocks == 0 {
		s.slabs[s.carved/chunkBlocks].Store(new(chunk))
	}
	at := uint64(s.carved%chunkBlocks) * blockWords
	ws := s.slabs[s.carved/chunkBlocks].Load()[at : at+blockWords]
	s.carved++
	return ws, e, s.carved
}

// homeWord returns word w's address, installing its chunk or block: the
// target of every read-modify-write on home memory.
func (f *Fabric) homeWord(w uint64) *uint64 { return &f.homeAt(w, true)[0] }

// homeLoadWord reads one aligned word from home memory.
func (f *Fabric) homeLoadWord(w uint64) uint64 {
	if ws := f.homeAt(w, false); ws != nil {
		return atomic.LoadUint64(&ws[0])
	}
	return 0
}

// homeStoreWord writes one aligned word to home memory. Zero into a chunk
// or block that was never written stores nothing: the word already reads
// as zero.
func (f *Fabric) homeStoreWord(w uint64, v uint64) {
	if ws := f.homeAt(w, v != 0); ws != nil {
		atomic.StoreUint64(&ws[0], v)
	}
}

// homeRun looks up the home memory of a run of lines in ascending order.
// It keeps the chunk or block its last line was found in, so the lines
// that share one cost one lookup; a zero homeRun for f starts empty.
// Chunks and blocks are never freed, so what it keeps stays valid.
type homeRun struct {
	f    *Fabric
	w    uint64   // the word ws starts at
	ws   []uint64 // home memory from word w to the end of its chunk or block
	none uint64   // with ws nil: how many words from w on a fetch found never written
}

// line returns the home words of line li, or nil when install is false
// and the line's chunk or block was never written.
func (r *homeRun) line(li uint64, install bool) *[lineWords]uint64 {
	w := li * lineWords
	if i := w - r.w; i < uint64(len(r.ws)) {
		return (*[lineWords]uint64)(r.ws[i:])
	}
	r.none = 0
	if r.ws = r.f.homeAt(w, install); r.ws == nil {
		return nil
	}
	r.w = w
	return (*[lineWords]uint64)(r.ws)
}

// fetch copies the line with index li from home memory into dst. Words
// are read in DESCENDING order, the reader's half of the line publication
// contract in doc.go: a fetch that sees a line's last word as new sees
// every earlier word at least as new. Once a fetch finds a block never
// written, the run's later lines in it read as zero without another
// lookup, so a ranged read sees a block that store installs with its
// contents whole or not at all.
func (r *homeRun) fetch(li uint64, dst *[LineSize]byte) {
	w := li * lineWords
	if r.ws == nil && w-r.w < r.none {
		*dst = [LineSize]byte{}
		return
	}
	ws := r.line(li, false)
	if ws == nil {
		r.w, r.none = w, blockWords-w&blockMask
		*dst = [LineSize]byte{}
		return
	}
	for w := lineWords - 1; w >= 0; w-- {
		binary.LittleEndian.PutUint64(dst[w*WordSize:], atomic.LoadUint64(&ws[w]))
	}
}

// store writes src, whole lines, to the lines from li on with no fault
// injection. Words land in ASCENDING order, the writer's half of the line
// publication contract in doc.go. An all-zero line into a chunk or block
// that was never written stores nothing, and a word that already holds its
// new value is not stored again: no reader can tell either from a store,
// and a load costs the host a fraction of an atomic store. A nonzero line
// that lands in a never-written block of a sparse region installs the
// block with its contents: the block is carved under homeMu, taken at
// most once for src; src's lines in it are copied in with plain stores;
// and only then does its directory entry publish it, so a racing fetch
// finds the whole block or none of it. Blocks are still carved in
// ascending order, and only where a nonzero line lands.
func (r *homeRun) store(li uint64, src []byte) {
	f := r.f
	locked := false
	for len(src) > 0 {
		w := li * lineWords
		line := (*[LineSize]byte)(src)
		k := uint64(1) // lines of src this pass writes or skips
		switch ws := r.line(li, false); {
		case ws != nil: // and src's next lines in the same chunk or block
			k = min(uint64(len(src))/LineSize, uint64(len(r.ws))/lineWords-(w-r.w)/lineWords)
			storeWords(r.ws[w-r.w:][:k*lineWords], src)
		case *line == [LineSize]byte{}:
		case f.sparseMiB(w):
			if !locked {
				f.homeMu.Lock()
				locked = true
			}
			block, e, b := f.sparse.Load().carve(w)
			if e == nil {
				continue // a racing writer installed it: look again
			}
			k = min(uint64(len(src))/LineSize, (blockWords-w&blockMask)/lineWords)
			words := block[w&blockMask:]
			for i := range k * lineWords {
				words[i] = binary.LittleEndian.Uint64(src[i*WordSize:])
			}
			e.Store(b)
			r.w, r.ws = w, words
		default: // a never-written chunk, installed under homeMu
			if locked {
				f.homeMu.Unlock()
				locked = false
			}
			storeWords(r.line(li, true)[:], src[:LineSize])
		}
		li += k
		src = src[k*LineSize:]
	}
	if locked {
		f.homeMu.Unlock()
	}
}

// storeWords writes src's words to ws in ascending order, each only if it
// changes the word.
func storeWords(ws []uint64, src []byte) {
	for w := range ws {
		if v := binary.LittleEndian.Uint64(src[w*WordSize:]); atomic.LoadUint64(&ws[w]) != v {
			atomic.StoreUint64(&ws[w], v)
		}
	}
}

// sparseMiB reports whether word w's MiB has a block directory.
func (f *Fabric) sparseMiB(w uint64) bool {
	s := f.sparse.Load()
	return s != nil && s.dirs[w>>chunkShift].Load() != nil
}

// commit writes one line of a batch home: straight with the injector
// disarmed, through writeLineHome's drop and corrupt draws when armed.
func (r *homeRun) commit(li uint64, src *[LineSize]byte, armed bool) (faults uint64) {
	if !armed {
		r.store(li, src[:])
		return 0
	}
	return r.f.writeLineHome(li, src)
}

// fetchLineHome copies the line with index li from home memory into dst,
// as homeRun.fetch does.
func (f *Fabric) fetchLineHome(li uint64, dst *[LineSize]byte) {
	r := homeRun{f: f}
	r.fetch(li, dst)
}

// writeLineHome copies src into home memory at line index li, applying any
// write-path fault injection, and returns how many injector hits the line
// took (1 for a dropped line, 1 per corrupted word) so the node can
// account them. Words land in ASCENDING order, as homeRun.store's do.
func (f *Fabric) writeLineHome(li uint64, src *[LineSize]byte) (faults uint64) {
	if f.faults.dropWriteBack() {
		return 1 // the line silently never reaches home memory
	}
	if f.faults.corruptRate.Load() == 0 {
		// Fast path: with corruption disarmed the injector draws nothing
		// from its PRNG, so skipping the per-word roll is observationally
		// identical — and saves eight atomic rate loads per line.
		r := homeRun{f: f}
		r.store(li, src[:])
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

// writeLinesHome commits a harvested write-back batch to home memory in
// buf order (callers pass ascending line index — load-bearing for the
// fault injector's deterministic replay and trace's sequence-last line
// commit), so every drop/corrupt draw happens in the same order as the
// per-line path.
func (f *Fabric) writeLinesHome(buf []wbEntry) (faults uint64) {
	armed := f.faultsArmed()
	r := homeRun{f: f}
	for i := range buf {
		faults += r.commit(buf[i].li, &buf[i].data, armed)
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
		if buf[i] != 0 || f.homeAt(w, false) != nil {
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
