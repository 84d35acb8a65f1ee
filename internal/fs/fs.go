package fs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/flacdk/quiescence"
	"flacos/internal/flacdk/replication"
	"flacos/internal/memsys"
	"flacos/internal/trace"
)

// Config sizes the file system's shared structures.
type Config struct {
	// CacheFrames is the shared page cache capacity in pages.
	CacheFrames uint64
	// MetaLogCap is the metadata journal's entry capacity.
	MetaLogCap uint64
	// MaxMounts bounds the number of simultaneous mounts (quiescence
	// participants).
	MaxMounts int
	// Frames optionally supplies a shared frame pool. When nil the FS
	// reserves its own. Sharing one pool with memsys is required for
	// file-backed mappings (mmap), whose COW breaks move frames between
	// the page cache and anonymous memory.
	Frames *memsys.GlobalFrames
}

// FS is one rack-wide FlacOS file system instance.
type FS struct {
	dev    BlockDev
	frames *memsys.GlobalFrames
	index  *ds.HashMap // pageKey -> frame phys >> 12
	dirty  *ds.HashMap // pageKey -> frame phys >> 12 at dirtying time, or cleanMark
	sizes  *ds.HashMap // fileID  -> size in bytes
	qdom   *quiescence.Domain

	metaLog *replication.Log
	idCtrG  fabric.GPtr

	mu         sync.Mutex
	nextPartID int
	maxMounts  int

	trw []atomic.Pointer[trace.Writer] // per-node flight-recorder hooks
}

// New creates a file system over dev, with its shared structures laid out
// in f's global memory.
func New(f *fabric.Fabric, dev BlockDev, cfg Config) *FS {
	if cfg.CacheFrames == 0 {
		cfg.CacheFrames = 1024
	}
	if cfg.MetaLogCap == 0 {
		cfg.MetaLogCap = 1024
	}
	if cfg.MaxMounts == 0 {
		cfg.MaxMounts = 2 * f.NumNodes()
	}
	frames := cfg.Frames
	if frames == nil {
		frames = memsys.NewGlobalFrames(f, cfg.CacheFrames)
	}
	return &FS{
		dev:       dev,
		frames:    frames,
		index:     ds.NewHashMap(f, cfg.CacheFrames*2),
		dirty:     ds.NewHashMap(f, cfg.CacheFrames*2),
		sizes:     ds.NewHashMap(f, cfg.CacheFrames),
		qdom:      quiescence.NewDomain(f, cfg.MaxMounts),
		metaLog:   replication.NewLog(f, cfg.MetaLogCap),
		idCtrG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		maxMounts: cfg.MaxMounts,
		trw:       make([]atomic.Pointer[trace.Writer], f.NumNodes()),
	}
}

// CachedPages returns how many pages the shared cache currently holds, as
// seen by node n. Rack-wide memory consumption is CachedPages()*PageSize
// regardless of how many nodes use the cache — the point of §3.4.
func (fs *FS) CachedPages(n *fabric.Node) uint64 { return fs.index.Len(n) }

func pageKey(fileID uint64, page uint32) uint64 { return fileID<<32 | uint64(page) }

// cleanMark is a page's dirty mark once its current version is on the
// device. Write-back clears a mark by CAS to this value instead of deleting
// the entry: a delete is two steps on two words and cannot be made
// conditional on the mark, a CAS is one. No frame has key 0 (the fabric's
// first line is reserved).
const cleanMark = 0

// --- metadata state machine (node-local replica, replicated via log) ---

// metaOpCreate creates a file in the replicated namespace.
// Payload: u64 id, name. Result: the id, or 0 if the name exists.
const metaOpCreate = 1

type inodeSM struct {
	names map[string]uint64
}

func newInodeSM() *inodeSM { return &inodeSM{names: make(map[string]uint64)} }

func (s *inodeSM) Apply(op uint32, payload []byte) uint64 {
	if op != metaOpCreate {
		return 0
	}
	id := binary.LittleEndian.Uint64(payload)
	name := string(payload[8:])
	if _, exists := s.names[name]; exists {
		return 0
	}
	s.names[name] = id
	return id
}

// Mount is one node's attachment to the file system. A Mount may be used
// concurrently by the node's goroutines: they share its quiescence
// participant, whose sections, epoch loads and retirement queue are safe
// for concurrent use, and its cache counters are atomic.
type Mount struct {
	fs    *FS
	node  *fabric.Node
	part  *quiescence.Participant
	unref frameFreer // where part's retired frames go

	meta    *inodeSM
	metaRep *replication.Replica

	hits   atomic.Uint64
	misses atomic.Uint64
}

// Mount attaches node n.
func (fs *FS) Mount(n *fabric.Node) *Mount {
	fs.mu.Lock()
	id := fs.nextPartID
	if id >= fs.maxMounts {
		fs.mu.Unlock()
		panic(fmt.Sprintf("fs: more than %d mounts", fs.maxMounts))
	}
	fs.nextPartID++
	fs.mu.Unlock()
	m := &Mount{
		fs:    fs,
		node:  n,
		part:  fs.qdom.Participant(n, id),
		unref: frameFreer{frames: fs.frames, n: n},
		meta:  newInodeSM(),
	}
	m.metaRep = fs.metaLog.Replica(n, m.meta)
	return m
}

// frameFreer drops one node's reference to a retired page-cache frame:
// the Freer a mount retires replaced and evicted frames to.
type frameFreer struct {
	frames *memsys.GlobalFrames
	n      *fabric.Node
}

func (f *frameFreer) Free(g fabric.GPtr) { f.frames.Unref(f.n, uint64(g)) }

// FenceMount recovers from the crash of dead's node: acting from live
// node `from`, it clears the dead mount's quiescence reservation so a
// participant that died inside a read section cannot stall epoch advance
// (and with it frame reclamation) rack-wide forever. The fenced Mount
// must never be used again; after the node restarts, attach a fresh one
// with FS.Mount. Retirements the dead mount still held are lost — those
// frames leak, exactly like memory held by a crashed kernel until a full
// device fsck, so size the cache with crash headroom.
func (fs *FS) FenceMount(from *fabric.Node, dead *Mount) {
	fs.qdom.Fence(from, dead.part.ID())
}

// CacheStats returns the mount's page-cache hit/miss counters.
func (m *Mount) CacheStats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// Create makes a new empty file and returns its id.
func (m *Mount) Create(name string) (uint64, error) {
	id := m.node.Add64(m.fs.idCtrG, 1)
	if id >= 1<<32 {
		panic("fs: file id space exhausted")
	}
	payload := make([]byte, 8+len(name))
	binary.LittleEndian.PutUint64(payload, id)
	copy(payload[8:], name)
	if m.metaRep.Execute(metaOpCreate, payload) == 0 {
		return 0, fmt.Errorf("fs: create %q: file exists", name)
	}
	m.fs.emit(m.node, trace.KJournalCommit, id, metaOpCreate)
	m.fs.sizes.PutIfAbsent(m.node, id, 0)
	return id, nil
}

// Lookup resolves a name to a file id. It syncs the metadata replica
// first, so files created on other nodes are visible.
func (m *Mount) Lookup(name string) (uint64, bool) {
	m.metaRep.Sync()
	var id uint64
	var ok bool
	m.metaRep.ReadLocal(func(replication.StateMachine) {
		id, ok = m.meta.names[name]
	})
	return id, ok
}

// Size returns the file's current size in bytes.
func (m *Mount) Size(id uint64) uint64 {
	sz, _ := m.fs.sizes.Get(m.node, id)
	return sz
}

func (m *Mount) bumpSize(id, end uint64) {
	for {
		cur, ok := m.fs.sizes.Get(m.node, id)
		if !ok {
			if _, ins := m.fs.sizes.PutIfAbsent(m.node, id, end); ins {
				return
			}
			continue
		}
		if cur >= end {
			return
		}
		if m.fs.sizes.CompareAndSwap(m.node, id, cur, end) {
			return
		}
	}
}

// lookupFrame returns the cached frame for a page, faulting it in from the
// device on miss (installing exactly one copy rack-wide). hole is true if
// neither cache nor device has the page.
func (m *Mount) lookupFrame(id uint64, page uint32) (phys uint64, hole bool) {
	key := pageKey(id, page)
	n := m.node
	if fk, ok := m.fs.index.Get(n, key); ok {
		m.hits.Add(1)
		return fk << memsys.PageShift, false
	}
	m.misses.Add(1)
	buf := make([]byte, PageSize)
	if !m.fs.dev.ReadPage(n, id, page, buf) {
		return 0, true
	}
	frame := m.fs.frames.AllocUninit(n)
	n.WriteFresh(fabric.GPtr(frame), buf)
	actual, inserted := m.fs.index.PutIfAbsent(n, key, frame>>memsys.PageShift)
	if !inserted {
		m.fs.frames.Unref(n, frame) // another node's miss won the install
	}
	return actual << memsys.PageShift, false
}

// Read copies up to len(buf) bytes from the file at off, through the
// shared page cache. It returns the number of bytes read (short at EOF).
func (m *Mount) Read(id uint64, off uint64, buf []byte) (int, error) {
	size := m.Size(id)
	if off >= size {
		return 0, nil
	}
	total := min(uint64(len(buf)), size-off)
	done := uint64(0)
	for done < total {
		page := uint32((off + done) >> memsys.PageShift)
		po := (off + done) % PageSize
		chunk := min(PageSize-po, total-done)
		m.part.Enter()
		phys, hole := m.lookupFrame(id, page)
		if hole {
			clear(buf[done : done+chunk])
		} else {
			m.node.ReadFresh(fabric.GPtr(phys+po), buf[done:done+chunk])
		}
		m.part.Exit()
		done += chunk
	}
	return int(total), nil
}

// Write copies data into the file at off using multi-version page updates:
// each written page gets a freshly allocated version frame that replaces
// the old one atomically; readers holding the old version finish safely
// and the old frame is reclaimed after a grace period.
func (m *Mount) Write(id uint64, off uint64, data []byte) (int, error) {
	n := m.node
	done := uint64(0)
	for done < uint64(len(data)) {
		page := uint32((off + done) >> memsys.PageShift)
		po := (off + done) % PageSize
		chunk := min(PageSize-po, uint64(len(data))-done)
		key := pageKey(id, page)

		// A partial-page write merges into the current version (or zeros)
		// and must install over EXACTLY the version the merge read: one
		// another writer installed in between carries bytes this merge
		// never saw, and replacing it would lose them. The read section is
		// held from the read across the install, so that frame cannot be
		// freed, reused for a newer version of this page and matched by
		// the CAS as if nothing had happened. A full-page write reads no
		// old version, replaces whichever is current and enters no section.
		partial := po != 0 || chunk != PageSize
		for {
			newFrame := m.fs.frames.AllocUninit(n)
			newFK := newFrame >> memsys.PageShift
			src := data[done : done+chunk]
			var (
				oldFK  uint64
				exists bool
			)
			if partial {
				cur := make([]byte, PageSize)
				m.part.Enter()
				phys, hole := m.lookupFrame(id, page)
				if !hole {
					n.ReadFresh(fabric.GPtr(phys), cur)
				}
				copy(cur[po:], src)
				src, oldFK, exists = cur, phys>>memsys.PageShift, !hole
			}
			n.WriteFresh(fabric.GPtr(newFrame), src)

			if !partial {
				oldFK, exists = m.fs.index.Get(n, key)
			}
			installed := false
			if exists {
				installed = m.fs.index.CompareAndSwap(n, key, oldFK, newFK)
			} else {
				_, installed = m.fs.index.PutIfAbsent(n, key, newFK)
			}
			if partial {
				m.part.Exit()
			}
			if installed {
				if exists {
					m.part.RetireTo(&m.unref, fabric.GPtr(oldFK<<memsys.PageShift))
					m.fs.emit(n, trace.KEvict, key, oldFK)
				}
				m.fs.dirty.Put(n, key, newFK)
				break
			}
			m.fs.frames.Unref(n, newFrame) // lost to a concurrent writer; retry
		}
		done += chunk
	}
	m.bumpSize(id, off+uint64(len(data)))
	m.part.Tick()
	return len(data), nil
}

// Fsync synchronously writes every cached page of the file to the device.
func (m *Mount) Fsync(id uint64) error {
	var keys []uint64
	m.fs.index.Range(m.node, func(k, v uint64) bool {
		if k>>32 == id {
			keys = append(keys, k)
		}
		return true
	})
	buf := make([]byte, PageSize)
	for _, k := range keys {
		m.writePage(k, buf)
	}
	return nil
}

// writePage writes the current version of page key to the device through
// buf and marks the page clean if that is still the version its dirty mark
// names. It reports whether there was a page to write.
//
// The read section is held from the read of the frame to the clear. While
// it is open the frame cannot be freed and reused for a newer version of
// the page, so a mark that names the frame names the version just written;
// and the clear is ONE compare-and-swap on the mark, so a page re-dirtied
// at any point of the pass — its mark now names another frame — stays
// dirty. (Comparing and then deleting are two steps: a write that lands
// between them loses its mark, and the page never reaches the device.) A
// page no longer cached is left alone: whoever evicted it drops its mark.
func (m *Mount) writePage(key uint64, buf []byte) bool {
	n := m.node
	m.part.Enter()
	defer m.part.Exit()
	fk, ok := m.fs.index.Get(n, key)
	if !ok {
		return false
	}
	n.ReadFresh(fabric.GPtr(fk<<memsys.PageShift), buf)
	m.fs.dev.WritePage(n, key>>32, uint32(key), buf)
	m.fs.dirty.CompareAndSwap(n, key, fk, cleanMark)
	return true
}

// dirtyKeys returns the pages whose mark names a version not yet written.
func (m *Mount) dirtyKeys() []uint64 {
	var keys []uint64
	m.fs.dirty.Range(m.node, func(k, mark uint64) bool {
		if mark != cleanMark {
			keys = append(keys, k)
		}
		return true
	})
	return keys
}

// WriteBackOnce performs one pass of the asynchronous write-back daemon:
// every dirty page is written to the device and its dirty mark cleared,
// unless it was written again meanwhile. Returns pages written.
func (m *Mount) WriteBackOnce() int {
	buf := make([]byte, PageSize)
	written := 0
	for _, key := range m.dirtyKeys() {
		if m.writePage(key, buf) {
			written++
		}
	}
	return written
}

// DropCaches evicts every page from the shared cache after writing dirty
// data to the device — `echo 3 > drop_caches` for the rack. Returns the
// number of pages evicted. Used for cache-cold experiments and memory
// pressure relief.
func (m *Mount) DropCaches() int {
	m.WriteBackOnce()
	n := m.node
	var keys []uint64
	m.fs.index.Range(n, func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	})
	dropped := 0
	for _, k := range keys {
		if fk, ok := m.fs.index.Delete(n, k); ok {
			m.part.RetireTo(&m.unref, fabric.GPtr(fk<<memsys.PageShift))
			m.fs.emit(n, trace.KEvict, k, fk)
			dropped++
		}
		m.fs.dirty.Delete(n, k)
	}
	m.part.Tick()
	return dropped
}
