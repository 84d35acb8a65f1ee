package fs

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/replication"
	"flacos/internal/memsys"
	"flacos/internal/trace"
)

// metaOpRename renames a file in the replicated namespace.
// Payload: u32 oldLen, old, new. Result: file id or 0.
const metaOpRename = 3

// Rename atomically renames a file. Fails if the source is missing or the
// destination exists — decided deterministically on every replica.
func (m *Mount) Rename(oldName, newName string) error {
	payload := make([]byte, 4+len(oldName)+len(newName))
	binary.LittleEndian.PutUint32(payload, uint32(len(oldName)))
	copy(payload[4:], oldName)
	copy(payload[4+len(oldName):], newName)
	id := m.metaRep.Execute(metaOpRename, payload)
	if id == 0 {
		return fmt.Errorf("fs: rename %q -> %q: no such file or destination exists", oldName, newName)
	}
	m.fs.emit(m.node, trace.KJournalCommit, id, metaOpRename)
	return nil
}

// List returns the names under prefix, sorted (the namespace is flat; a
// "directory" is a name prefix, like object stores).
func (m *Mount) List(prefix string) []string {
	m.metaRep.Sync()
	var names []string
	m.metaRep.ReadLocal(func(replication.StateMachine) {
		for name := range m.meta.names {
			if strings.HasPrefix(name, prefix) {
				names = append(names, name)
			}
		}
	})
	sort.Strings(names)
	return names
}

// Append writes data at the file's current end and returns the offset it
// landed at. Concurrent appenders from different nodes each get disjoint
// regions: the offset is claimed with a CAS loop on the size table.
func (m *Mount) Append(id uint64, data []byte) (uint64, error) {
	n := m.node
	for {
		cur, ok := m.fs.sizes.Get(n, id)
		if !ok {
			return 0, fmt.Errorf("fs: append to unknown file %d", id)
		}
		if m.fs.sizes.CompareAndSwap(n, id, cur, cur+uint64(len(data))) {
			if _, err := m.Write(id, cur, data); err != nil {
				return 0, err
			}
			return cur, nil
		}
	}
}

// Truncate sets the file's size. Shrinking drops whole cached pages beyond
// the new end (their frames are reclaimed after a grace period).
func (m *Mount) Truncate(id uint64, size uint64) error {
	n := m.node
	for {
		cur, ok := m.fs.sizes.Get(n, id)
		if !ok {
			return fmt.Errorf("fs: truncate of unknown file %d", id)
		}
		if cur == size {
			return nil
		}
		if !m.fs.sizes.CompareAndSwap(n, id, cur, size) {
			continue
		}
		if size < cur {
			firstDead := uint32((size + PageSize - 1) >> memsys.PageShift)
			var keys []uint64
			m.fs.index.Range(n, func(k, v uint64) bool {
				if k>>32 == id && uint32(k) >= firstDead {
					keys = append(keys, k)
				}
				return true
			})
			for _, k := range keys {
				if fk, ok := m.fs.index.Delete(n, k); ok {
					m.part.RetireTo(&m.unref, fabric.GPtr(fk<<memsys.PageShift))
				}
				m.fs.dirty.Delete(n, k)
			}
			// Zero the boundary page's tail: data beyond the new EOF must
			// read back as zeros if the file grows again (POSIX truncate).
			if tail := size % PageSize; tail != 0 {
				if _, err := m.Write(id, size, make([]byte, PageSize-tail)); err != nil {
					return err
				}
				// The zeroing write bumped the size back up; undo it.
				for {
					c, _ := m.fs.sizes.Get(n, id)
					if c <= size || m.fs.sizes.CompareAndSwap(n, id, c, size) {
						break
					}
				}
			}
			m.housekeep()
		}
		return nil
	}
}
