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
	fab    *fabric.Fabric
	base   fabric.GPtr
	frames uint64
	bumpG  fabric.GPtr // atomic: next never-used frame index
	headG  fabric.GPtr // atomic: free-list head (tagged)
	refs   *ds.HashMap // frame phys >> PageShift -> refcount
}

const frameAddrBits = 40

// NewGlobalFrames reserves a region of the given number of frames.
func NewGlobalFrames(f *fabric.Fabric, frames uint64) *GlobalFrames {
	if frames == 0 {
		panic("memsys: zero frames")
	}
	return &GlobalFrames{
		fab:    f,
		base:   f.Reserve(frames*PageSize, PageSize),
		frames: frames,
		bumpG:  f.Reserve(fabric.LineSize, fabric.LineSize),
		headG:  f.Reserve(fabric.LineSize, fabric.LineSize),
		refs:   ds.NewHashMap(f, frames*2),
	}
}

// Contains reports whether phys lies in this allocator's region.
func (gf *GlobalFrames) Contains(phys uint64) bool {
	return phys >= uint64(gf.base) && phys < uint64(gf.base)+gf.frames*PageSize
}

// zeroPage is the source every frame is zero-filled from. Nothing writes it.
var zeroPage [PageSize]byte

// Alloc returns one zeroed global frame's physical address with refcount 1.
// It panics when global memory is exhausted (a rack sizing error).
func (gf *GlobalFrames) Alloc(n *fabric.Node) uint64 {
	phys := gf.AllocUninit(n)
	n.Write(fabric.GPtr(phys), zeroPage[:])
	n.WriteBackRange(fabric.GPtr(phys), PageSize)
	n.InvalidateRange(fabric.GPtr(phys), PageSize)
	return phys
}

// AllocUninit returns a frame with unspecified contents, for callers about
// to overwrite the whole page (page-cache installs, COW copies) — skipping
// the zeroing pass.
func (gf *GlobalFrames) AllocUninit(n *fabric.Node) uint64 {
	var phys uint64
	for {
		h := n.AtomicLoad64(gf.headG)
		addr := h & (1<<frameAddrBits - 1)
		if addr == 0 {
			idx := n.Add64(gf.bumpG, 1) - 1
			if idx >= gf.frames {
				panic(fmt.Sprintf("memsys: out of global frames (%d)", gf.frames))
			}
			phys = uint64(gf.base) + idx*PageSize
			break
		}
		next := n.AtomicLoad64(fabric.GPtr(addr))
		if n.CAS64(gf.headG, h, (h>>frameAddrBits+1)<<frameAddrBits|next) {
			phys = addr
			break
		}
	}
	// A popped/bumped frame is exclusively ours; its refcount entry is
	// either absent (fresh) or 0 (previously freed).
	gf.refs.Put(n, phys>>PageShift, 1)
	return phys
}

// Ref increments the frame's refcount (sharing via dedup or COW fork).
func (gf *GlobalFrames) Ref(n *fabric.Node, phys uint64) {
	key := phys >> PageShift
	for {
		c, ok := gf.refs.Get(n, key)
		if !ok || c == 0 {
			panic(fmt.Sprintf("memsys: Ref on unallocated frame %#x", phys))
		}
		if gf.refs.CompareAndSwap(n, key, c, c+1) {
			return
		}
	}
}

// TryRef increments the refcount iff the frame is still live, returning
// whether a reference was taken. DedupPass uses it for the canonical
// frame, which every sharer can concurrently COW-break away from and
// free: losing that race must skip the merge, not panic.
func (gf *GlobalFrames) TryRef(n *fabric.Node, phys uint64) bool {
	key := phys >> PageShift
	for {
		c, ok := gf.refs.Get(n, key)
		if !ok || c == 0 {
			return false
		}
		if gf.refs.CompareAndSwap(n, key, c, c+1) {
			return true
		}
	}
}

// Unref decrements the refcount, pushing the frame onto the free list when
// it reaches zero. Returns true when the frame was actually freed.
func (gf *GlobalFrames) Unref(n *fabric.Node, phys uint64) bool {
	key := phys >> PageShift
	for {
		c, ok := gf.refs.Get(n, key)
		if !ok || c == 0 {
			panic(fmt.Sprintf("memsys: Unref on unallocated frame %#x", phys))
		}
		if !gf.refs.CompareAndSwap(n, key, c, c-1) {
			continue
		}
		if c != 1 {
			return false
		}
		for {
			h := n.AtomicLoad64(gf.headG)
			n.AtomicStore64(fabric.GPtr(phys), h&(1<<frameAddrBits-1))
			if n.CAS64(gf.headG, h, (h>>frameAddrBits+1)<<frameAddrBits|phys) {
				return true
			}
		}
	}
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
	node *fabric.Node

	mu     sync.Mutex
	frames [][]byte
	free   []uint32
}

// NewLocalStore creates the node's local frame pool.
func NewLocalStore(n *fabric.Node) *LocalStore {
	return &LocalStore{node: n}
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

// Page returns the frame's backing bytes. Only single-goroutine tests may
// touch the slice directly; the MMU paths go through readAt/writeAt/copyOut
// so concurrent access and migration serialize on the store's mutex.
func (ls *LocalStore) page(idx uint32) []byte {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.frames[idx]
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

// Allocated returns how many frames the store has ever created.
func (ls *LocalStore) Allocated() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.frames)
}
