// Package dksync is FlacDK's synchronization layer over the non-coherent
// fabric (paper §3.2).
//
// It provides the level-1/level-2 primitives: a spin lock built on fabric
// atomics, and the LockedRegion discipline that makes lock-based critical
// sections *correct* on incoherent memory — at the cost the paper calls
// out: every critical section must invalidate the protected data on entry
// and flush it on exit, turning each section into multiple global-memory
// round trips. The replication, delegation and quiescence
// packages are the lock-free alternatives FlacOS actually prefers.
package dksync

import "flacos/internal/fabric"

// SpinLock is a test-and-set lock on one dedicated global cache line.
// It is correct on non-coherent memory because fabric atomics bypass the
// caches — but every acquire attempt is a full fabric round trip.
type SpinLock struct {
	g fabric.GPtr
}

// NewSpinLock reserves a cache line for the lock and returns it unlocked.
func NewSpinLock(f *fabric.Fabric) SpinLock {
	return SpinLock{g: f.Reserve(fabric.LineSize, fabric.LineSize)}
}

// Lock acquires the lock on behalf of node n, waiting while another
// holds it. The stored value records the owner node (id+1) for debugging.
func (l SpinLock) Lock(n *fabric.Node) {
	n.Await(fabric.Wait{Site: "dksync.SpinLock.Lock", Word: l.g}, func() (uint64, bool) {
		return 0, n.CAS64(l.g, 0, uint64(n.ID())+1)
	})
}

// Unlock releases the lock. It panics if n does not hold it, because an
// unlock-by-non-owner is always a bug worth failing loudly on.
func (l SpinLock) Unlock(n *fabric.Node) {
	if !n.CAS64(l.g, uint64(n.ID())+1, 0) {
		panic("dksync: SpinLock.Unlock by non-owner")
	}
}

// LockedRegion couples a SpinLock with the cache-maintenance discipline a
// critical section needs on non-coherent memory: invalidate the protected
// range on entry (to observe other nodes' writes) and flush it on exit (to
// publish this node's writes before the lock is released).
//
// This is the paper's "existing lock-based approach": correct, but each
// section pays invalidate + flush of the whole protected range on top of
// the lock's fabric atomics. Ablation A quantifies exactly this cost.
type LockedRegion struct {
	lock SpinLock
	// Data is the protected global range.
	Data fabric.GPtr
	// Size is the protected range's length in bytes.
	Size uint64
}

// NewLockedRegion reserves size bytes of global memory plus a lock line.
func NewLockedRegion(f *fabric.Fabric, size uint64) *LockedRegion {
	return &LockedRegion{
		lock: NewSpinLock(f),
		Data: f.Reserve(fabric.AlignUp64(size, fabric.LineSize), fabric.LineSize),
		Size: size,
	}
}

// Do runs fn with the region locked and cache-consistent: fn sees the
// latest committed contents and its writes are published before unlock.
func (r *LockedRegion) Do(n *fabric.Node, fn func()) {
	r.lock.Lock(n)
	//flacvet:ignore raw-maintenance the lock-based baseline Ablation A prices: whatever fn reads is dropped on entry
	n.InvalidateRange(r.Data, r.Size)
	fn()
	//flacvet:ignore raw-maintenance and whatever fn wrote is flushed before the unlock
	n.FlushRange(r.Data, r.Size)
	r.lock.Unlock(n)
}

// DoRead runs fn with the region locked for reading: it invalidates on
// entry but skips the exit flush (fn must not write the region).
func (r *LockedRegion) DoRead(n *fabric.Node, fn func()) {
	r.lock.Lock(n)
	//flacvet:ignore raw-maintenance the lock-based baseline Ablation A prices: whatever fn reads is dropped on entry
	n.InvalidateRange(r.Data, r.Size)
	fn()
	r.lock.Unlock(n)
}
