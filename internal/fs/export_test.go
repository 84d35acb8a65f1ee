package fs

// DirtyPages returns how many pages currently await write-back.
func (m *Mount) DirtyPages() uint64 { return uint64(len(m.dirtyKeys())) }
