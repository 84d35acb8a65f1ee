package memsys

// flush empties the TLB.
func (t *tlb) flush() {
	t.mu.Lock()
	t.gen.Add(1)
	clear(t.m)
	t.order, t.free, t.hand = t.order[:0], t.free[:0], 0
	t.mu.Unlock()
}

// Contains reports whether phys lies in this allocator's region.
func (gf *GlobalFrames) Contains(phys uint64) bool {
	return phys >= uint64(gf.base) && phys < uint64(gf.base)+gf.frames*PageSize
}

// page returns the frame's backing bytes. Only single-goroutine tests may
// touch the slice directly; the MMU paths go through readAt/writeAt/copyOut
// so concurrent access and migration serialize on the store's mutex.
func (ls *LocalStore) page(idx uint32) []byte {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.frames[idx]
}

// Allocated returns how many frames the store has ever created.
func (ls *LocalStore) Allocated() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.frames)
}
