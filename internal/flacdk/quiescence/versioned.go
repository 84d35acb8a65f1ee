package quiescence

import (
	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// Allocator is the memory source for version buffers. flacdk/alloc
// satisfies it; tests may use a trivial bump allocator.
type Allocator interface {
	// Alloc returns a zero-initialized global region of at least size bytes.
	Alloc(size uint64) fabric.GPtr
	// Free returns a region to the allocator. Called only after a grace
	// period, so no reader can still reference it.
	Free(g fabric.GPtr)
}

// uninitAllocator is optionally implemented by allocators that can skip
// zeroing (flacdk/alloc does). Versioned writers that overwrite the whole
// version use it to avoid a wasted zeroing pass over global memory.
type uninitAllocator interface {
	AllocUninit(size uint64) fabric.GPtr
}

func allocVersion(a Allocator, fullOverwrite bool) fabric.GPtr {
	if fullOverwrite {
		if ua, ok := a.(uninitAllocator); ok {
			return ua.AllocUninit(versionSize)
		}
	}
	return a.Alloc(versionSize)
}

// VersionedCell is a multi-version shared object: a single atomic head word
// in global memory pointing at the current immutable version. Writers
// publish a whole new version and retire the old one; readers dereference
// the head inside a read section and invalidate the version's lines before
// reading. This is the update pattern the FlacOS file system uses for its
// shared page cache (§3.4) and the checkpoint mechanism reuses (§3.2).
type VersionedCell struct {
	headG fabric.GPtr
}

// versionSize is the size of a VersionedCell's versions.
const versionSize = 64

// NewVersionedCell creates a cell whose initial version, allocated from
// a, holds zeroes.
func NewVersionedCell(f *fabric.Fabric, n *fabric.Node, a Allocator) *VersionedCell {
	c := &VersionedCell{headG: f.Reserve(fabric.LineSize, fabric.LineSize)}
	n.AtomicStore64(c.headG, uint64(a.Alloc(versionSize)))
	return c
}

// Read copies the current version into buf (at most versionSize bytes) on
// behalf of participant p. It enters a read section around the dereference
// so the version cannot be reclaimed mid-copy, and invalidates before
// reading so no stale lines from a previous residency of the buffer are
// observed.
func (c *VersionedCell) Read(p *Participant, buf []byte) {
	p.Enter()
	v := fabric.GPtr(p.n.AtomicLoad64(c.headG))
	ds.ReadRange(p.n, v, buf)
	p.Exit()
}

// Write publishes a new version containing data, retiring the old version
// back to a after its grace period.
func (c *VersionedCell) Write(p *Participant, a Allocator, data []byte) {
	if len(data) > versionSize {
		panic("quiescence: VersionedCell.Write data exceeds version size")
	}
	n := p.n
	v := allocVersion(a, len(data) == versionSize)
	ds.PublishRange(n, v, data)
	old := fabric.GPtr(n.Swap64(c.headG, uint64(v)))
	p.RetireTo(a, old)
}

// Update atomically transforms the cell: it reads the current version,
// calls fn to produce the next contents in place, and publishes it; on CAS
// failure (a concurrent writer won) it retries with the fresh version.
//
// The read section is held across the CAS. The CAS compares the ADDRESS of
// the version fn saw; outside a section that version could be retired,
// freed, reallocated and republished at the same address in between, and
// the CAS would then succeed over somebody else's update (ABA). Inside
// the section the address cannot be reused, so "same address" means "same
// version". fn runs inside the section and must not call Barrier.
func (c *VersionedCell) Update(p *Participant, a Allocator, fn func(cur []byte)) {
	n := p.n
	buf := make([]byte, versionSize)
	for {
		p.Enter()
		oldG := fabric.GPtr(n.AtomicLoad64(c.headG))
		ds.ReadRange(n, oldG, buf)
		fn(buf)
		v := allocVersion(a, true)
		ds.PublishRange(n, v, buf)
		won := n.CAS64(c.headG, uint64(oldG), uint64(v))
		p.Exit()
		if won {
			p.RetireTo(a, oldG)
			return
		}
		a.Free(v) // lost the race; our unpublished version is private, free now
	}
}
