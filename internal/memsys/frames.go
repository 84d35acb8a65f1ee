package memsys

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// GlobalFrames allocates PageSize frames from a dedicated global-memory
// region. It is a simple lock-free free-list allocator (Treiber stack over
// fabric atomics, bump allocation for fresh frames) shared by every node,
// with a global refcount table so deduplicated and COW-shared frames are
// freed exactly once.
type GlobalFrames struct {
	base   fabric.GPtr
	frames uint64
	bumpG  fabric.GPtr // atomic: next never-used frame index
	headG  fabric.GPtr // atomic: free-list head (tagged)
	refs   *ds.HashMap // frame phys >> PageShift -> refcount

	// nodeMu[i] is node i's frame lock, host-side: node i's global frame
	// reads and write-and-write-back pairs take it (MMU.readFrame,
	// writeFrame), and a shootdown of node i takes it once to wait out the
	// stores it overtook (Space.ackStores).
	nodeMu []sync.Mutex
}

const frameAddrBits = 40

// NewGlobalFrames reserves a region of the given number of frames. The
// region is sparse (fabric.ReserveSparse): a frame that holds one record
// costs the host the block around the record, not the MiB around it.
func NewGlobalFrames(f *fabric.Fabric, frames uint64) *GlobalFrames {
	if frames == 0 {
		panic("memsys: zero frames")
	}
	return &GlobalFrames{
		base:   f.ReserveSparse(frames * PageSize),
		frames: frames,
		bumpG:  f.Reserve(fabric.LineSize, fabric.LineSize),
		headG:  f.Reserve(fabric.LineSize, fabric.LineSize),
		refs:   ds.NewHashMap(f, frames*2),
		nodeMu: make([]sync.Mutex, f.NumNodes()),
	}
}

// zeroPage is the source every recycled frame is zero-filled from. Nothing
// writes it.
var zeroPage [PageSize]byte

// Alloc returns one zeroed global frame's physical address with refcount 1.
// Only a recycled frame (a free-list pop, whose word 0 still holds the
// list link and whose lines may sit dirty in some cache) is zero-filled.
// A frame the bump path hands out for the first time since boot is known
// zero: nothing stores into the frame region before a frame's first
// allocation, so its home memory reads zero and no cache holds its lines.
// It panics when global memory is exhausted (a rack sizing error).
func (gf *GlobalFrames) Alloc(n *fabric.Node) uint64 {
	phys, fresh := gf.take(n)
	if !fresh {
		n.WriteFresh(fabric.GPtr(phys), zeroPage[:])
	}
	return phys
}

// AllocUninit returns a frame with unspecified contents, for callers about
// to overwrite the whole page (page-cache installs, COW copies): neither
// path fills.
func (gf *GlobalFrames) AllocUninit(n *fabric.Node) uint64 {
	phys, _ := gf.take(n)
	return phys
}

// take pops a recycled frame off the free list, or bumps a fresh one when
// the list is empty, and reports which.
func (gf *GlobalFrames) take(n *fabric.Node) (phys uint64, fresh bool) {
	for {
		h := n.AtomicLoad64(gf.headG)
		addr := h & (1<<frameAddrBits - 1)
		if addr == 0 {
			idx := n.Add64(gf.bumpG, 1) - 1
			if idx >= gf.frames {
				panic(fmt.Sprintf("memsys: out of global frames (%d)", gf.frames))
			}
			// A never-used frame has no refcount slot yet: Put claims one.
			phys := uint64(gf.base) + idx*PageSize
			gf.refs.Put(n, phys>>PageShift, 1)
			return phys, true
		}
		next := n.AtomicLoad64(fabric.GPtr(addr))
		if !n.CAS64(gf.headG, h, (h>>frameAddrBits+1)<<frameAddrBits|next) {
			continue
		}
		// A popped frame is exclusively ours and its slot still holds the 0
		// its last Unref left (the table never deletes a key). Nothing
		// changes a 0 count, so the one CAS from it cannot lose.
		if s, c, ok := gf.refs.Find(n, addr>>PageShift); !ok || c != 0 || !gf.refs.CompareAndSwapAt(n, s, 0, 1) {
			panic(fmt.Sprintf("memsys: free frame %#x has references", addr))
		}
		return addr, false
	}
}

// adjust adds delta to a live frame's refcount: one probe of its slot and
// one CAS from the count the probe saw, probing again only after a lost
// CAS. It returns the count it replaced, or 0, changing nothing, when the
// frame is free.
func (gf *GlobalFrames) adjust(n *fabric.Node, phys, delta uint64) uint64 {
	key := phys >> PageShift
	for {
		s, c, ok := gf.refs.Find(n, key)
		if !ok || c == 0 {
			return 0
		}
		if gf.refs.CompareAndSwapAt(n, s, c, c+delta) {
			return c
		}
	}
}

// Ref increments the frame's refcount (sharing via dedup or COW fork).
func (gf *GlobalFrames) Ref(n *fabric.Node, phys uint64) {
	if gf.adjust(n, phys, 1) == 0 {
		panic(fmt.Sprintf("memsys: Ref on unallocated frame %#x", phys))
	}
}

// TryRef increments the refcount iff the frame is still live, returning
// whether a reference was taken. DedupPass uses it for the canonical
// frame, which every sharer can concurrently COW-break away from and
// free: losing that race must skip the merge, not panic.
func (gf *GlobalFrames) TryRef(n *fabric.Node, phys uint64) bool {
	return gf.adjust(n, phys, 1) != 0
}

// Unref decrements the refcount, pushing the frame onto the free list when
// it reaches zero. Returns true when the frame was actually freed.
func (gf *GlobalFrames) Unref(n *fabric.Node, phys uint64) bool {
	switch gf.adjust(n, phys, ^uint64(0)) { // -1
	case 0:
		panic(fmt.Sprintf("memsys: Unref on unallocated frame %#x", phys))
	case 1:
		for {
			h := n.AtomicLoad64(gf.headG)
			n.AtomicStore64(fabric.GPtr(phys), h&(1<<frameAddrBits-1))
			if n.CAS64(gf.headG, h, (h>>frameAddrBits+1)<<frameAddrBits|phys) {
				return true
			}
		}
	}
	return false
}

// RefCount returns the frame's current refcount (0 if unallocated).
func (gf *GlobalFrames) RefCount(n *fabric.Node, phys uint64) uint64 {
	c, _ := gf.refs.Get(n, phys>>PageShift)
	return c
}

// LocalStore is one node's private page-frame pool: plain Go memory,
// reachable only by its own node (remote access requires migrating the
// page into global memory — exactly the constraint real node-local DRAM
// has in a rack).
type LocalStore struct {
	mu     sync.Mutex
	frames [][]byte
	free   []uint32
}

// NewLocalStore creates the node's local frame pool.
func NewLocalStore(n *fabric.Node) *LocalStore {
	return &LocalStore{}
}

// Alloc returns a zeroed local frame index.
func (ls *LocalStore) Alloc() uint32 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if len(ls.free) > 0 {
		idx := ls.free[len(ls.free)-1]
		ls.free = ls.free[:len(ls.free)-1]
		clear(ls.frames[idx])
		return idx
	}
	ls.frames = append(ls.frames, make([]byte, PageSize))
	return uint32(len(ls.frames) - 1)
}

// Free returns a frame to the pool.
func (ls *LocalStore) Free(idx uint32) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.free = append(ls.free, idx)
}

// readAt copies frame bytes [off, off+len(buf)) into buf under the lock,
// so a concurrent migration or tiering demotion copying the frame out
// never races the byte transfer (the model's atomic line transfers).
func (ls *LocalStore) readAt(idx uint32, off uint64, buf []byte) {
	ls.mu.Lock()
	copy(buf, ls.frames[idx][off:])
	ls.mu.Unlock()
}

// writeAt copies data into frame bytes at off under the lock.
func (ls *LocalStore) writeAt(idx uint32, off uint64, data []byte) {
	ls.mu.Lock()
	copy(ls.frames[idx][off:], data)
	ls.mu.Unlock()
}

// copyOut snapshots the whole frame into dst under the lock (migration
// and demotion's page transfer).
func (ls *LocalStore) copyOut(idx uint32, dst *[PageSize]byte) {
	ls.mu.Lock()
	copy(dst[:], ls.frames[idx])
	ls.mu.Unlock()
}
