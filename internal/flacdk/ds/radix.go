package ds

import (
	"fmt"
	"sync/atomic"

	"flacos/internal/fabric"
)

// Allocator is the node-allocator subset the radix tree needs.
type Allocator interface {
	// Alloc returns a zero-initialized global block of at least size bytes.
	Alloc(size uint64) fabric.GPtr
}

// RadixTree is a lock-free radix tree in global memory mapping fixed-width
// keys to uint64 values, usable concurrently from every node. Interior
// nodes are 256-way fan-out tables of child pointers installed with CAS;
// leaf tables hold raw value words. memsys keeps its shared page table in
// one (VPN -> PTE).
//
// The value 0 means "absent"; store v+1 style encodings if 0 is meaningful.
//
// Each node keeps a walk cache from a key's leaf-table prefix (key >> 8)
// to the leaf table, the software twin of an MMU's paging-structure
// cache: a hit costs one node-local access instead of radixLevels-1 fabric
// atomics, and the leaf word's atomic follows as before. The cache needs
// no invalidation, shootdown or purge on crash. An interior slot is
// written exactly once (descend's CAS from 0) and interior tables are
// never freed, so a pointer the walk read or installed by atomic stays
// the pointer in home memory for the tree's lifetime. Only such pointers
// are cached: never nil, never a partial walk, and after a lost install
// race the winner's table. Interior slots are never read through the node
// cache, where a line left from an earlier use of the arena memory would
// decode as a pointer.
type RadixTree struct {
	rootG fabric.GPtr // the root table (allocated eagerly)
	walk  []walkEntry // walkEntries per node, node i's at [i*walkEntries:]
}

// radixLevels is the tree's depth: 32-bit keys (page numbers: 16 TiB of
// VA), 8 bits a level.
const radixLevels = 4

// walkEntries is the number of direct-mapped walk-cache entries per node.
// Each maps one leaf table of 256 keys, so with page numbers as keys a
// node reaches 256 entries × 256 pages = 256 MiB of VA.
const walkEntries = 256

// walkEntry caches one prefix's leaf table. seq is a per-entry seqlock,
// odd while one of the node's CPUs fills the entry: a reader that sees
// the same even seq before and after loading prefix and leaf read one
// fill's pair. leaf 0 (fabric.Nil) marks an empty entry.
type walkEntry struct {
	seq    atomic.Uint64
	prefix atomic.Uint64
	leaf   atomic.Uint64
}

const radixFanout = 256
const radixNodeSize = radixFanout * fabric.WordSize // 2 KiB

// NewRadixTree creates a tree for 32-bit keys.
func NewRadixTree(f *fabric.Fabric, a Allocator) *RadixTree {
	return &RadixTree{rootG: a.Alloc(radixNodeSize), walk: make([]walkEntry, f.NumNodes()*walkEntries)}
}

func (t *RadixTree) slot(node fabric.GPtr, key uint64, level int) fabric.GPtr {
	shift := uint((radixLevels - 1 - level) * 8)
	idx := (key >> shift) & 0xff
	return node.Add(idx * fabric.WordSize)
}

// lookup returns the leaf table cached for prefix, or fabric.Nil.
func (e *walkEntry) lookup(prefix uint64) fabric.GPtr {
	s := e.seq.Load()
	if s&1 != 0 {
		return fabric.Nil
	}
	p, leaf := e.prefix.Load(), fabric.GPtr(e.leaf.Load())
	if e.seq.Load() != s || p != prefix {
		return fabric.Nil
	}
	return leaf
}

// fill caches leaf for prefix. If another CPU of the node is filling the
// entry, this fill is dropped: the entry is a cache.
func (e *walkEntry) fill(prefix uint64, leaf fabric.GPtr) {
	s := e.seq.Load()
	if s&1 != 0 || !e.seq.CompareAndSwap(s, s+1) {
		return
	}
	e.prefix.Store(prefix)
	e.leaf.Store(uint64(leaf))
	e.seq.Store(s + 2)
}

// descend walks to the leaf slot for key, creating interior nodes with a
// (alloc may be nil for read-only walks; missing nodes end the walk). A
// hit in n's walk cache skips the interior levels; a completed walk fills
// the entry.
func (t *RadixTree) descend(n *fabric.Node, a Allocator, key uint64) fabric.GPtr {
	prefix := key >> 8
	e := &t.walk[n.ID()*walkEntries+int(prefix%walkEntries)]
	if leaf := e.lookup(prefix); !leaf.IsNil() {
		n.ChargeLocal()
		return t.slot(leaf, key, radixLevels-1)
	}
	node := t.rootG
	for level := 0; level < radixLevels-1; level++ {
		s := t.slot(node, key, level)
		child := fabric.GPtr(n.AtomicLoad64(s))
		if child.IsNil() {
			if a == nil {
				return fabric.Nil
			}
			fresh := a.Alloc(radixNodeSize)
			if n.CAS64(s, 0, uint64(fresh)) {
				child = fresh
			} else {
				// Lost the install race; the winner's node is in place. The
				// fresh node was never published, so it simply leaks back to
				// the allocator's accounting — acceptable for interior nodes,
				// which are never freed anyway.
				child = fabric.GPtr(n.AtomicLoad64(s))
			}
		}
		node = child
	}
	e.fill(prefix, node)
	return t.slot(node, key, radixLevels-1)
}

// CompareAndSwap installs value only if the slot currently holds old.
func (t *RadixTree) CompareAndSwap(n *fabric.Node, a Allocator, key, old, value uint64) bool {
	t.checkKey(key)
	leaf := t.descend(n, a, key)
	return n.CAS64(leaf, old, value)
}

// Get returns the value for key (0 if absent).
func (t *RadixTree) Get(n *fabric.Node, key uint64) uint64 {
	t.checkKey(key)
	leaf := t.descend(n, nil, key)
	if leaf.IsNil() {
		return 0
	}
	return n.AtomicLoad64(leaf)
}

// Delete erases key, returning the previous value.
func (t *RadixTree) Delete(n *fabric.Node, key uint64) uint64 {
	t.checkKey(key)
	leaf := t.descend(n, nil, key)
	if leaf.IsNil() {
		return 0
	}
	return n.Swap64(leaf, 0)
}

func (t *RadixTree) checkKey(key uint64) {
	if key>>(radixLevels*8) != 0 {
		panic(fmt.Sprintf("ds: radix key %#x exceeds %d-bit keyspace", key, radixLevels*8))
	}
}
