// Package alloc is FlacDK's object-granularity allocator for global memory
// (paper §3.2): size-class slabs carved from a shared arena, lock-free
// central free lists, and per-node magazines so the common path costs no
// fabric traffic at all.
//
// Design over the non-coherent fabric:
//
//   - The arena is divided into fixed slabs; each slab is dedicated to one
//     size class, recorded in a global class table, so Free can recover an
//     object's class from its address alone (no per-object header). A
//     slab's entry is written once, when the slab is grabbed, and never
//     again, so each NodeAllocator remembers the entries it has read: the
//     table costs a node one fabric atomic per slab, not one per Free.
//   - Central free lists are Treiber stacks whose head words carry an ABA
//     tag in the upper bits. Heads and the per-block next words are accessed
//     only with fabric atomics, which bypass the caches, so the lists are
//     correct without any cache maintenance.
//   - Each node's NodeAllocator keeps small per-class magazines in local
//     memory; only magazine refill/spill touches the shared lists. The
//     common path of AllocUninit and of Free is node-local end to end.
//
// Reclamation of objects still referenced by concurrent readers is the job
// of flacdk/quiescence: retire the object there and pass Free as the
// callback. NodeAllocator satisfies quiescence.Allocator directly.
package alloc

import (
	"fmt"
	"sync/atomic"

	"flacos/internal/fabric"
)

// Classes are the supported allocation sizes. An allocation is rounded up
// to the smallest class that fits.
var Classes = []uint64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// MaxAlloc is the largest size Alloc accepts; larger regions should be
// carved with fabric.Reserve at boot.
const MaxAlloc = 65536

// SlabSize is the unit in which the arena hands memory to size classes.
const SlabSize = 256 * 1024

const (
	addrBits = 40
	addrMask = (1 << addrBits) - 1
)

func packHead(tag, addr uint64) uint64 { return tag<<addrBits | addr&addrMask }
func headAddr(h uint64) uint64         { return h & addrMask }
func headTag(h uint64) uint64          { return h >> addrBits }

// Arena is the shared allocator state. One Arena is created at boot; every
// node derives a NodeAllocator from it.
type Arena struct {
	fab      *fabric.Fabric
	base     fabric.GPtr
	slabs    uint64
	nextSlab fabric.GPtr // atomic: next unassigned slab index
	classTab fabric.GPtr // atomic word per slab: class index + 1, 0 = unassigned
	heads    []fabric.GPtr
}

// NewArena reserves size bytes of global memory (rounded down to whole
// slabs) and the allocator's control structures.
func NewArena(f *fabric.Fabric, size uint64) *Arena {
	slabs := size / SlabSize
	if slabs == 0 {
		panic("alloc: arena smaller than one slab")
	}
	a := &Arena{
		fab:      f,
		slabs:    slabs,
		nextSlab: f.Reserve(fabric.LineSize, fabric.LineSize),
		classTab: f.Reserve(slabs*fabric.WordSize, fabric.LineSize),
		heads:    make([]fabric.GPtr, len(Classes)),
	}
	for i := range a.heads {
		a.heads[i] = f.Reserve(fabric.LineSize, fabric.LineSize)
	}
	a.base = f.Reserve(slabs*SlabSize, fabric.LineSize)
	return a
}

// classFor returns the class index for an allocation of size bytes.
func classFor(size uint64) int {
	for i, c := range Classes {
		if size <= c {
			return i
		}
	}
	panic(fmt.Sprintf("alloc: size %d exceeds MaxAlloc %d (use fabric.Reserve)", size, MaxAlloc))
}

// ClassSize returns the block size Alloc would use for size bytes.
func ClassSize(size uint64) uint64 { return Classes[classFor(size)] }

// classOf recovers the class of an allocated block from its address with
// one load of the global class table.
func (a *Arena) classOf(n *fabric.Node, g fabric.GPtr) int {
	if g < a.base || uint64(g) >= uint64(a.base)+a.slabs*SlabSize {
		panic(fmt.Sprintf("alloc: Free(%v) outside arena", g))
	}
	slab := g.Diff(a.base) / SlabSize
	cls := n.AtomicLoad64(a.classTab.Add(slab * fabric.WordSize))
	if cls == 0 {
		panic(fmt.Sprintf("alloc: Free(%v) in unassigned slab %d", g, slab))
	}
	return int(cls - 1)
}

// push adds block g to class ci's central free list.
func (a *Arena) push(n *fabric.Node, ci int, g fabric.GPtr) {
	head := a.heads[ci]
	for {
		h := n.AtomicLoad64(head)
		n.AtomicStore64(g, headAddr(h)) // block's first word = next
		if n.CAS64(head, h, packHead(headTag(h)+1, uint64(g))) {
			return
		}
	}
}

// pop removes one block from class ci's central free list, or returns Nil.
func (a *Arena) pop(n *fabric.Node, ci int) fabric.GPtr {
	head := a.heads[ci]
	for {
		h := n.AtomicLoad64(head)
		addr := headAddr(h)
		if addr == 0 {
			return fabric.Nil
		}
		next := n.AtomicLoad64(fabric.GPtr(addr))
		if n.CAS64(head, h, packHead(headTag(h)+1, next)) {
			return fabric.GPtr(addr)
		}
	}
}

// grabSlab assigns a fresh slab to class ci and returns its base. The
// grabbing node carves the slab's blocks in its own local bookkeeping —
// carving memory you exclusively own needs no fabric traffic. Panics when
// the arena is exhausted: the rack's global memory budget is fixed at
// boot, so running out is a sizing error, not a runtime condition to limp
// through.
func (a *Arena) grabSlab(n *fabric.Node, ci int) fabric.GPtr {
	s := n.Add64(a.nextSlab, 1) - 1
	if s >= a.slabs {
		panic(fmt.Sprintf("alloc: arena exhausted (%d slabs)", a.slabs))
	}
	n.AtomicStore64(a.classTab.Add(s*fabric.WordSize), uint64(ci+1))
	return a.base.Add(s * SlabSize)
}

// NodeAllocator is a node's fast-path allocator: per-class magazines in
// local memory backed by the shared arena. Not safe for concurrent use by
// multiple goroutines — create one per worker (they share the Arena).
type NodeAllocator struct {
	arena  *Arena
	node   *fabric.Node
	mags   [][]fabric.GPtr
	magCap int
	// reserve holds the unconsumed remainder of slabs this node grabbed:
	// pure local bookkeeping, consumed without fabric traffic.
	reserve [][]fabric.GPtr
	// slabClass memoises the global class table, class index + 1 per slab
	// and 0 for a slab this node has not freed into yet. Entries of the
	// table are write-once (grabSlab), so a remembered one is never stale.
	slabClass []uint8

	allocs atomic.Uint64
	frees  atomic.Uint64
}

// NodeAllocator derives a fast-path allocator for node n with the given
// magazine capacity per class (<=0 selects the default of 32).
func (a *Arena) NodeAllocator(n *fabric.Node, magCap int) *NodeAllocator {
	if magCap <= 0 {
		magCap = 32
	}
	return &NodeAllocator{
		arena:     a,
		node:      n,
		mags:      make([][]fabric.GPtr, len(Classes)),
		magCap:    magCap,
		reserve:   make([][]fabric.GPtr, len(Classes)),
		slabClass: make([]uint8, a.slabs),
	}
}

// Node returns the fabric node this allocator runs on.
func (na *NodeAllocator) Node() *fabric.Node { return na.node }

// AllocUninit returns a block of at least size bytes with unspecified
// contents. The block is line-aligned (every class is a multiple of the
// line size).
func (na *NodeAllocator) AllocUninit(size uint64) fabric.GPtr {
	ci := classFor(size)
	na.allocs.Add(1)
	if m := na.mags[ci]; len(m) > 0 {
		g := m[len(m)-1]
		na.mags[ci] = m[:len(m)-1]
		return g
	}
	if r := na.reserve[ci]; len(r) > 0 {
		g := r[len(r)-1]
		na.reserve[ci] = r[:len(r)-1]
		return g
	}
	if g := na.arena.pop(na.node, ci); !g.IsNil() {
		return g
	}
	base := na.arena.grabSlab(na.node, ci)
	bs := Classes[ci]
	for off := bs; off+bs <= SlabSize; off += bs {
		na.reserve[ci] = append(na.reserve[ci], base.Add(off))
	}
	return base
}

// Alloc returns a zero-initialized block of at least size bytes. It
// implements quiescence.Allocator.
func (na *NodeAllocator) Alloc(size uint64) fabric.GPtr {
	g := na.AllocUninit(size)
	cs := Classes[classFor(size)]
	zero := make([]byte, cs)
	na.node.Write(g, zero)
	na.node.WriteBackRange(g, cs)
	return g
}

// classOf is Arena.classOf behind the node's memo: one fabric atomic the
// first time this node frees into a slab, none after. A block outside the
// arena or in an unassigned slab is never in the memo, so both of
// Arena.classOf's panics still fire.
func (na *NodeAllocator) classOf(g fabric.GPtr) int {
	slab := (uint64(g) - uint64(na.arena.base)) / SlabSize // wraps past every slab for g below base
	if slab < uint64(len(na.slabClass)) && na.slabClass[slab] != 0 {
		return int(na.slabClass[slab] - 1)
	}
	ci := na.arena.classOf(na.node, g)
	na.slabClass[slab] = uint8(ci + 1)
	return ci
}

// Free returns a block to the allocator. The caller must guarantee no
// concurrent reader can still dereference it (use quiescence.Retire when
// that is not structurally evident). It implements quiescence.Allocator.
func (na *NodeAllocator) Free(g fabric.GPtr) {
	if g.IsNil() {
		panic("alloc: Free(nil)")
	}
	ci := na.classOf(g)
	na.frees.Add(1)
	if len(na.mags[ci]) < na.magCap {
		na.mags[ci] = append(na.mags[ci], g)
		return
	}
	// Magazine full: spill half to the central list, then keep g locally.
	spill := na.magCap / 2
	m := na.mags[ci]
	for _, b := range m[len(m)-spill:] {
		na.arena.push(na.node, ci, b)
	}
	na.mags[ci] = append(m[:len(m)-spill], g)
}

// FlushMagazines returns every locally cached block to the central lists
// (e.g. before the node goes idle, or in fault-box teardown).
func (na *NodeAllocator) FlushMagazines() {
	for ci, m := range na.mags {
		for _, b := range m {
			na.arena.push(na.node, ci, b)
		}
		na.mags[ci] = na.mags[ci][:0]
	}
}

// Stats returns the allocator's lifetime alloc and free counts.
func (na *NodeAllocator) Stats() (allocs, frees uint64) {
	return na.allocs.Load(), na.frees.Load()
}

// Relocate moves a live object of size bytes to a freshly allocated block
// (reducing fragmentation, improving packing, or changing tier placement —
// §3.2's "runtime object movement"). It copies the contents, calls update
// with the new address (the caller republishes every reference there), and
// returns a release function that frees the OLD block — to be called
// directly if no concurrent readers exist, or passed to quiescence.Retire.
func (na *NodeAllocator) Relocate(g fabric.GPtr, size uint64, update func(fabric.GPtr)) (release func()) {
	dst := na.AllocUninit(size)
	buf := make([]byte, size)
	na.node.InvalidateRange(g, size)
	na.node.Read(g, buf)
	na.node.Write(dst, buf)
	na.node.WriteBackRange(dst, size)
	update(dst)
	old := g
	return func() { na.Free(old) }
}
