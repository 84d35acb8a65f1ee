package memsys

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/ds"
	"flacos/internal/flacdk/replication"
	"flacos/internal/trace"
)

// MMUStats counts one MMU's translation activity.
type MMUStats struct {
	TLBHits        atomic.Uint64
	TLBMisses      atomic.Uint64
	PageFaults     atomic.Uint64
	COWBreaks      atomic.Uint64
	Migrations     atomic.Uint64
	Promotions     atomic.Uint64
	Demotions      atomic.Uint64
	ShootdownsSent atomic.Uint64
}

// MMUStatsSnapshot is a point-in-time copy of MMUStats, the value form
// Stats returns (the old 7-tuple form could not grow without breaking
// every call site; the tiering counters forced the switch).
type MMUStatsSnapshot struct {
	TLBHits        uint64
	TLBMisses      uint64
	PageFaults     uint64
	COWBreaks      uint64
	Migrations     uint64
	Promotions     uint64 // tiering: pages moved cold->warm or ->node-local
	Demotions      uint64 // tiering: pages moved local->warm or warm->cold
	ShootdownsSent uint64
}

// tlb is a per-node translation cache: node-local, coherent Go memory, so
// an ordinary mutex suffices. Cross-node correctness comes from shootdowns.
//
// gen counts invalidations (local and shootdown-delivered). The store path
// snapshots it around each chunk: an unchanged generation means no
// shootdown touched this MMU mid-store, so the translation held for the
// whole store and the expensive page-table re-walk can be skipped — the
// software analogue of a core that re-checks its mapping only after a
// shootdown IPI, not after every store.
//
// A full TLB replaces the entry under a hand that sweeps its fill order
// round-robin, so which translation it evicts follows from the sequence
// of puts and invalidations alone, never from Go's map iteration order,
// and a run that evicts replays bit for bit.
type tlb struct {
	gen   atomic.Uint64
	mu    sync.Mutex
	cap   int
	m     map[uint64]tlbEntry
	order []uint64 // the VPN cached at each position, filled in order
	free  []int    // positions an invalidation emptied, refilled first
	hand  int      // the position a put into a full TLB replaces
}

type tlbEntry struct {
	pte PTE
	pos int
}

func newTLB(capacity int) *tlb {
	if capacity <= 0 {
		capacity = 256
	}
	return &tlb{cap: capacity, m: make(map[uint64]tlbEntry)}
}

func (t *tlb) get(vpn uint64) (PTE, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[vpn]
	return e.pte, ok
}

// put caches p, read from the page table after the TLB's generation was
// gen. If an invalidation has landed since, p may be the very mapping a
// shootdown just killed (the shootdown found no entry to drop because the
// walk had not cached it yet), so p serves the access that walked it and
// is not cached.
func (t *tlb) put(vpn uint64, p PTE, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen.Load() != gen {
		return
	}
	if e, ok := t.m[vpn]; ok {
		t.m[vpn] = tlbEntry{p, e.pos}
		return
	}
	var i int
	switch {
	case len(t.free) > 0:
		i = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.order[i] = vpn
	case len(t.order) < t.cap:
		i = len(t.order)
		t.order = append(t.order, vpn)
	default: // full: every position holds a live entry
		i = t.hand
		t.hand = (t.hand + 1) % t.cap
		delete(t.m, t.order[i])
		t.order[i] = vpn
	}
	t.m[vpn] = tlbEntry{p, i}
}

func (t *tlb) invalidate(vpn uint64) {
	t.mu.Lock()
	// Bump BEFORE the delete: an unchanged gen observed by a store proves
	// the invalidation had not begun.
	t.gen.Add(1)
	if e, ok := t.m[vpn]; ok {
		delete(t.m, vpn)
		t.free = append(t.free, e.pos)
	}
	t.mu.Unlock()
}

// MMU is one node's attachment to a Space: TLB, fault handling, and the
// load/store paths. Safe for concurrent use by the node's goroutines.
type MMU struct {
	space  *Space
	node   *fabric.Node
	pta    *alloc.NodeAllocator
	local  *LocalStore
	vmas   *vmaSM
	vmaRep *replication.Replica
	tlb    *tlb
	stats  MMUStats
}

// Node returns the fabric node this MMU belongs to.
func (m *MMU) Node() *fabric.Node { return m.node }

// Stats returns a snapshot of the MMU's counters.
func (m *MMU) Stats() MMUStatsSnapshot {
	return MMUStatsSnapshot{
		TLBHits:        m.stats.TLBHits.Load(),
		TLBMisses:      m.stats.TLBMisses.Load(),
		PageFaults:     m.stats.PageFaults.Load(),
		COWBreaks:      m.stats.COWBreaks.Load(),
		Migrations:     m.stats.Migrations.Load(),
		Promotions:     m.stats.Promotions.Load(),
		Demotions:      m.stats.Demotions.Load(),
		ShootdownsSent: m.stats.ShootdownsSent.Load(),
	}
}

// MMap maps pages at [vaStart, vaStart+pages*PageSize) with the given
// protection and backing tier. The operation replicates to every attached
// node through the VMA log.
func (m *MMU) MMap(vaStart uint64, pages uint64, prot Prot, backing Backing) error {
	if backing == BackFile {
		return &MapError{Op: "mmap", VA: vaStart, Why: "use MMapFile for file-backed mappings"}
	}
	return m.mmap(vaStart, pages, prot, backing, 0, 0)
}

// MMapFile maps pages of a file (starting at filePage) into the address
// space with MAP_PRIVATE semantics: reads are served straight from the
// shared page cache's frames (zero copies, one frame rack-wide); the
// first write to a page copies it into a private anonymous frame. The
// space must share the file system's frame pool and have a PageSource.
func (m *MMU) MMapFile(vaStart uint64, pages uint64, prot Prot, fileID uint64, filePage uint32) error {
	if m.space.pageSource() == nil {
		return &MapError{Op: "mmap", VA: vaStart, Why: "space has no PageSource for file mappings"}
	}
	return m.mmap(vaStart, pages, prot, BackFile, fileID, filePage)
}

func (m *MMU) mmap(vaStart uint64, pages uint64, prot Prot, backing Backing, fileID uint64, filePage uint32) error {
	if vaStart%PageSize != 0 || pages == 0 {
		return &MapError{Op: "mmap", VA: vaStart, Why: "unaligned or empty"}
	}
	var payload [36]byte
	binary.LittleEndian.PutUint64(payload[:], vaStart>>PageShift)
	binary.LittleEndian.PutUint64(payload[8:], pages)
	binary.LittleEndian.PutUint32(payload[16:], uint32(prot))
	binary.LittleEndian.PutUint32(payload[20:], uint32(backing))
	binary.LittleEndian.PutUint64(payload[24:], fileID)
	binary.LittleEndian.PutUint32(payload[32:], filePage)
	if m.vmaRep.Execute(vmaOpMap, payload[:]) == 0 {
		return &MapError{Op: "mmap", VA: vaStart, Why: "overlaps existing mapping"}
	}
	return nil
}

// MUnmap removes a mapping previously created with exactly (vaStart,
// pages), releasing its frames and shooting down every TLB.
func (m *MMU) MUnmap(vaStart uint64, pages uint64) error {
	var payload [24]byte
	binary.LittleEndian.PutUint64(payload[:], vaStart>>PageShift)
	binary.LittleEndian.PutUint64(payload[8:], pages)
	if m.vmaRep.Execute(vmaOpUnmap, payload[:]) == 0 {
		return &MapError{Op: "munmap", VA: vaStart, Why: "no such mapping"}
	}
	startVPN := vaStart >> PageShift
	for vpn := startVPN; vpn < startVPN+pages; vpn++ {
		old := PTE(m.space.pt.Delete(m.node, vpn))
		m.tlb.invalidate(vpn)
		m.space.shootdown(m, vpn)
		if !old.Valid() {
			continue
		}
		if old.Global() {
			m.space.frames.Unref(m.node, old.GlobalPhys())
		} else if nodeID, idx := old.LocalFrame(); nodeID == m.node.ID() {
			m.local.Free(idx)
		} else {
			// Remote local frame: its owner's store must release it. The
			// registry gives us the owner's MMU (models an unmap IPI).
			if owner := m.space.mmuOnNode(nodeID); owner != nil {
				owner.local.Free(idx)
				m.node.ChargeNS(ipiCostNS)
			}
		}
	}
	return nil
}

// mmuOnNode returns some MMU attached from the given node, or nil.
func (s *Space) mmuOnNode(nodeID int) *MMU {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.mmus {
		if m.node.ID() == nodeID {
			return m
		}
	}
	return nil
}

// translate resolves vpn to a PTE, faulting the page in on demand. write
// selects write semantics (COW break, protection check).
func (m *MMU) translate(vpn uint64, write bool) (PTE, error) {
	if p, ok := m.tlb.get(vpn); ok {
		if !write || p.Writable() {
			m.stats.TLBHits.Add(1)
			m.sample(vpn, write)
			return p, nil
		}
		// Write to a read-only TLB entry: fall into the fault path.
		m.tlb.invalidate(vpn)
	}
	m.stats.TLBMisses.Add(1)
	for {
		var gen uint64
		var p PTE
		// A page mid-move is Busy: wait for its final entry.
		m.node.Await(fabric.Wait{Site: "memsys.MMU.translate", Arg: vpn}, func() (uint64, bool) {
			gen = m.tlb.gen.Load()
			p = PTE(m.space.pt.Get(m.node, vpn))
			return uint64(p), !p.Busy()
		})
		switch {
		case !p.Valid():
			var err error
			if p, err = m.demandFault(vpn); err != nil {
				return 0, err
			}
			continue // re-check the installed entry
		case write && p.COW():
			m.breakCOW(vpn, p)
			continue
		case write && !p.Writable():
			return 0, &MapError{Op: "write", VA: vpn << PageShift, Why: "read-only mapping"}
		case !p.Global() && m.nodeOf(p) != m.node.ID():
			m.migrateToGlobal(vpn, p)
			continue
		default:
			m.tlb.put(vpn, p, gen)
			m.sample(vpn, write)
			return p, nil
		}
	}
}

// sample forwards one successful translation to the space's access
// sampler, if any. One atomic load on the no-sampler path.
func (m *MMU) sample(vpn uint64, write bool) {
	if b := m.space.sampler.Load(); b != nil {
		b.s.Sample(m.node.ID(), vpn, write)
	}
}

func (m *MMU) nodeOf(p PTE) int {
	nodeID, _ := p.LocalFrame()
	return nodeID
}

// demandFault allocates and installs a frame for vpn per its VMA — the
// §3.3 fault path that "allocates and loads pages into global memory".
func (m *MMU) demandFault(vpn uint64) (PTE, error) {
	m.stats.PageFaults.Add(1)
	m.vmaRep.Sync() // learn VMAs mapped by other nodes
	var vma VMA
	var ok bool
	m.vmaRep.ReadLocal(func(replication.StateMachine) {
		vma, ok = m.vmas.lookup(vpn)
	})
	if !ok {
		return 0, &MapError{Op: "fault", VA: vpn << PageShift, Why: "unmapped address (SIGSEGV)"}
	}
	writable := vma.Prot&ProtWrite != 0
	var p PTE
	switch vma.Backing {
	case BackGlobal:
		phys := m.space.frames.Alloc(m.node)
		p = MakeGlobalPTE(phys, writable)
		if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, 0, uint64(p)) {
			return p, nil
		}
		m.space.frames.Unref(m.node, phys) // lost the install race
	case BackLocal:
		idx := m.local.Alloc()
		p = MakeLocalPTE(m.node.ID(), idx, writable)
		if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, 0, uint64(p)) {
			return p, nil
		}
		m.local.Free(idx)
	case BackFile:
		src := m.space.pageSource()
		if src == nil {
			return 0, &MapError{Op: "fault", VA: vpn << PageShift, Why: "no PageSource"}
		}
		filePage := vma.FilePage + uint32(vpn-vma.StartVPN)
		phys, ok := src.PageFrame(vma.FileID, filePage)
		if !ok {
			return 0, &MapError{Op: "fault", VA: vpn << PageShift,
				Why: fmt.Sprintf("file %d page %d beyond EOF (SIGBUS)", vma.FileID, filePage)}
		}
		// Map the shared cache frame read-only; writable VMAs get COW so
		// the first store copies into a private frame.
		p = MakeGlobalPTE(phys, false)
		if writable {
			p |= PteCOW
		}
		if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, 0, uint64(p)) {
			return p, nil
		}
		m.space.frames.Unref(m.node, phys) // lost the race: drop our ref
	}
	return PTE(m.space.pt.Get(m.node, vpn)), nil // winner's entry
}

// breakCOW copies a copy-on-write page into a private frame.
func (m *MMU) breakCOW(vpn uint64, old PTE) {
	buf := make([]byte, PageSize)
	m.readFrame(old, 0, buf)
	phys := m.space.frames.AllocUninit(m.node)
	m.node.WriteFresh(fabric.GPtr(phys), buf)
	neu := MakeGlobalPTE(phys, true)
	if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old), uint64(neu)) {
		m.stats.COWBreaks.Add(1)
		m.tlb.invalidate(vpn)
		m.space.shootdown(m, vpn)
		if old.Global() {
			m.space.frames.Unref(m.node, old.GlobalPhys())
		}
		return
	}
	m.space.frames.Unref(m.node, phys) // another node broke it first
}

// migrateToGlobal moves a remote node-local page into global memory so this
// node can reach it: the unified-address-space promise of the shared
// heterogeneous page table.
//
// Unmap-before-copy protocol: publish the in-transit (busy) marker first so
// no new translation can hand out the dying mapping, purge every TLB, and
// only then copy the frame. Any store that slipped past its own MMU's
// generation check necessarily finished before the purge — before the
// copy — so the copy captures it; later stores re-walk and retry on the
// busy or final entry.
func (m *MMU) migrateToGlobal(vpn uint64, old PTE) {
	ownerID, idx := old.LocalFrame()
	owner := m.space.mmuOnNode(ownerID)
	if owner == nil {
		panic("memsys: local page owned by a node with no attached MMU")
	}
	phys := m.space.frames.AllocUninit(m.node)
	if !m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old), uint64(old|PteBusy)) {
		m.space.frames.Unref(m.node, phys) // racing move won
		return
	}
	m.node.ChargeNS(ipiCostNS) // ask the owner to relinquish
	owner.tlb.invalidate(vpn)
	m.tlb.invalidate(vpn)
	m.space.shootdown(m, vpn)
	var buf [PageSize]byte
	owner.local.copyOut(idx, &buf) // owner's lock serializes in-flight stores
	m.node.WriteFresh(fabric.GPtr(phys), buf[:])
	neu := MakeGlobalPTE(phys, old.Writable())
	if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old|PteBusy), uint64(neu)) {
		m.stats.Migrations.Add(1)
		m.space.emit(m.node, trace.KMigrate, vpn, uint64(ownerID))
		owner.local.Free(idx)
		if b := m.space.sampler.Load(); b != nil {
			b.s.Migrated(vpn, ownerID)
		}
		return
	}
	m.space.frames.Unref(m.node, phys) // unmapped mid-move
}

// readFrame copies [off, off+len(buf)) of the frame behind p into buf.
// Cold-tier frames pay the fabric's ColdNS surcharge on top of the
// ordinary global cost — the access still works, it is just far.
//
// A global frame is read under the node's frame lock: ReadFresh drops the
// node's cached lines of the range, dirty ones included, so it must not
// land between writeFrame's Write and its write-back, or those lines
// would never reach home.
func (m *MMU) readFrame(p PTE, off uint64, buf []byte) {
	if p.Global() {
		mu := &m.space.frames.nodeMu[m.node.ID()]
		mu.Lock()
		defer mu.Unlock() // a crashed node's ReadFresh panics
		m.node.ReadFresh(fabric.GPtr(p.GlobalPhys()+off), buf)
		if p.Cold() {
			m.node.ChargeColdAccess(len(buf)/fabric.LineSize + 1)
		}
		return
	}
	nodeID, idx := p.LocalFrame()
	if nodeID != m.node.ID() {
		panic("memsys: direct read of remote local frame (must migrate)")
	}
	m.local.readAt(idx, off, buf)
	m.node.ChargeNS((len(buf)/fabric.LineSize + 1) * localAccessNS)
}

// writeFrame copies data into the frame behind p, vpn's translation read
// after the TLB generation was gen, at off. It reports false, having
// stored nothing, when a shootdown took the translation first.
//
// A global frame is stored and written back home under the node's frame
// lock (see readFrame), and only if vpn still translates to p: a path
// that retires a frame changes the PTE, shoots it down and then takes the
// frame lock of every node it shot (Space.ackStores), so a store through
// the old translation lands before that or not at all — never after the
// path has compared, copied or freed the frame. The lock is host-side and
// charges nothing.
func (m *MMU) writeFrame(vpn uint64, p PTE, gen, off uint64, data []byte) bool {
	if p.Global() {
		mu := &m.space.frames.nodeMu[m.node.ID()]
		mu.Lock()
		defer mu.Unlock()
		if m.tlb.gen.Load() != gen {
			if q, ok := m.tlb.get(vpn); !ok || q != p {
				return false
			}
		}
		g := fabric.GPtr(p.GlobalPhys() + off)
		ds.PublishRange(m.node, g, data)
		if p.Cold() {
			m.node.ChargeColdAccess(len(data)/fabric.LineSize + 1)
		}
		return true
	}
	nodeID, idx := p.LocalFrame()
	if nodeID != m.node.ID() {
		panic("memsys: direct write of remote local frame (must migrate)")
	}
	m.local.writeAt(idx, off, data)
	m.node.ChargeNS((len(data)/fabric.LineSize + 1) * localAccessNS)
	return true
}

// localAccessNS models one line's worth of node-local DRAM access.
const localAccessNS = 100

// Read copies len(buf) bytes from virtual address va, faulting pages in on
// demand. Global pages are invalidated before reading, so the data is
// coherent with the most recent write-back by any node.
func (m *MMU) Read(va uint64, buf []byte) error {
	for done := 0; done < len(buf); {
		vpn := (va + uint64(done)) >> PageShift
		off := (va + uint64(done)) % PageSize
		chunk := min(PageSize-off, uint64(len(buf)-done))
		p, err := m.translate(vpn, false)
		if err != nil {
			return err
		}
		m.readFrame(p, off, buf[done:done+int(chunk)])
		done += int(chunk)
	}
	return nil
}

// Write copies data to virtual address va with write-through to home
// memory, breaking COW and faulting pages in as needed.
//
// After each page's store the translation is re-validated: a concurrent
// write-protect (dedup's merge fence) or migration that landed mid-store
// would otherwise absorb the data into a frame about to be shared or
// abandoned. The check is two-level, like real hardware: the TLB
// invalidation generation is snapshotted before translating, and only if
// an invalidation hit this MMU during the store is the page table
// re-walked (the retry a core performs after a shootdown IPI). This is
// sound because every PTE-changing path invalidates TLBs, and the
// frame-moving paths purge ALL TLBs before copying the old frame
// (unmap-before-copy). The purge waits for the stores it overtook
// (Space.ackStores), and a store re-checks its TLB entry under the node's
// frame lock (writeFrame): so a store either used the live mapping or
// finished before the purge — and therefore before the copy, which
// captures it — or stores nothing and translates again.
func (m *MMU) Write(va uint64, data []byte) error {
	for done := 0; done < len(data); {
		vpn := (va + uint64(done)) >> PageShift
		off := (va + uint64(done)) % PageSize
		chunk := min(PageSize-off, uint64(len(data)-done))
		gen := m.tlb.gen.Load()
		p, err := m.translate(vpn, true)
		if err != nil {
			return err
		}
		if !m.writeFrame(vpn, p, gen, off, data[done:done+int(chunk)]) {
			continue // shot down before the store: translate again
		}
		if m.tlb.gen.Load() != gen && PTE(m.space.pt.Get(m.node, vpn)) != p {
			m.tlb.invalidate(vpn)
			continue // mapping changed under the store: redo this chunk
		}
		done += int(chunk)
	}
	return nil
}

// PTEOf returns the current page-table entry for va (diagnostics/tests).
func (m *MMU) PTEOf(va uint64) PTE { return PTE(m.space.pt.Get(m.node, va>>PageShift)) }
