package memsys

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/ds"
	"flacos/internal/flacdk/replication"
	"flacos/internal/trace"
)

// brokenSkipShootdown suppresses remote TLB shootdowns — a deliberately
// broken sync path the torture harness enables (-torture-break shootdown)
// to prove its no-stale-mapping checker catches a missing shootdown.
var brokenSkipShootdown atomic.Bool

// SetBrokenSkipShootdown toggles the torture-only broken shootdown path.
func SetBrokenSkipShootdown(on bool) { brokenSkipShootdown.Store(on) }

// Prot is a mapping's protection.
type Prot uint32

// Protection flags.
const (
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
)

// Backing selects which memory tier a VMA's pages come from.
type Backing uint32

// Backing tiers.
const (
	// BackGlobal pages live in interconnect-attached global memory and are
	// reachable from every node — the default for shared data.
	BackGlobal Backing = iota
	// BackLocal pages live in the faulting node's local DRAM; a remote
	// access migrates them into global memory (§3.3's unified indexing of
	// both memories).
	BackLocal
	// BackFile pages map a file through the shared page cache
	// (MAP_PRIVATE semantics): faults resolve to the cache's frame for
	// that file page, mapped read-only; writes COW into a private frame.
	// The Space needs a PageSource (SetPageSource) and must share the
	// file system's frame pool.
	BackFile
)

// PageSource resolves file pages to page-cache frames for BackFile
// mappings. fs.Mount implements it. The returned frame must carry a
// reference for the mapping (released on unmap or COW break).
type PageSource interface {
	PageFrame(fileID uint64, page uint32) (phys uint64, ok bool)
}

// VMA describes one mapped region. VMAs are the paper's canonical
// "node-local structure": each node holds a replica, synchronized through
// the FlacDK replication log rather than shared memory, because they are
// consulted on every fault but changed rarely.
type VMA struct {
	StartVPN uint64
	Pages    uint64
	Prot     Prot
	Backing  Backing
	// FileID and FilePage locate the backing file range (BackFile only).
	FileID   uint64
	FilePage uint32
}

// End returns one past the VMA's last VPN.
func (v VMA) End() uint64 { return v.StartVPN + v.Pages }

const (
	vmaOpMap   = 1
	vmaOpUnmap = 2
)

// vmaSM is the replicated VMA table: a sorted slice, identical on every
// attached node after replay.
type vmaSM struct {
	vmas []VMA
}

func (s *vmaSM) Apply(op uint32, payload []byte) uint64 {
	start := binary.LittleEndian.Uint64(payload)
	pages := binary.LittleEndian.Uint64(payload[8:])
	switch op {
	case vmaOpMap:
		prot := Prot(binary.LittleEndian.Uint32(payload[16:]))
		backing := Backing(binary.LittleEndian.Uint32(payload[20:]))
		vma := VMA{StartVPN: start, Pages: pages, Prot: prot, Backing: backing}
		if len(payload) >= 36 {
			vma.FileID = binary.LittleEndian.Uint64(payload[24:])
			vma.FilePage = binary.LittleEndian.Uint32(payload[32:])
		}
		for _, v := range s.vmas {
			if start < v.End() && v.StartVPN < start+pages {
				return 0 // overlap: rejected deterministically on every replica
			}
		}
		s.vmas = append(s.vmas, vma)
		sort.Slice(s.vmas, func(i, j int) bool { return s.vmas[i].StartVPN < s.vmas[j].StartVPN })
		return 1
	case vmaOpUnmap:
		for i, v := range s.vmas {
			if v.StartVPN == start && v.Pages == pages {
				s.vmas = append(s.vmas[:i], s.vmas[i+1:]...)
				return 1
			}
		}
		return 0
	}
	return 0
}

// lookup returns the VMA covering vpn.
func (s *vmaSM) lookup(vpn uint64) (VMA, bool) {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End() > vpn })
	if i < len(s.vmas) && s.vmas[i].StartVPN <= vpn {
		return s.vmas[i], true
	}
	return VMA{}, false
}

// Space is one rack-wide address space: a page table shared in global
// memory plus the replicated VMA table. Any node may attach an MMU and the
// resulting threads see a single unified address space — the paper's
// "address space sharing and multi-threading support across the entire
// rack".
type Space struct {
	ID     uint64
	pt     *ds.RadixTree
	frames *GlobalFrames
	vmaLog *replication.Log

	mu     sync.Mutex
	mmus   []*MMU
	source PageSource

	trw     []atomic.Pointer[trace.Writer] // per-node flight-recorder hooks
	sampler atomic.Pointer[samplerBox]     // tiering access-heat hook
}

// Sampler observes the MMU translate path. Implementations must be safe
// for concurrent use from every attached node and cheap enough for the
// hot path (the tiering daemon's sharded heat map is the intended one; a
// single mutex-guarded map would serialize every node's MMU).
type Sampler interface {
	// Sample is called once per successful translation (TLB hit or miss)
	// with the accessing node, the page, and whether the access wrote.
	Sample(node int, vpn uint64, write bool)
	// Migrated is called after a demand migration pulled a node-local page
	// into the global tier (MMU.migrateToGlobal), so a placement daemon
	// tracking tiers learns the page moved without scanning the page table.
	Migrated(vpn uint64, fromNode int)
}

// samplerBox exists because atomic.Pointer cannot hold an interface.
type samplerBox struct{ s Sampler }

// SetSampler installs (or, with nil, removes) the space's access sampler.
func (s *Space) SetSampler(sm Sampler) {
	if sm == nil {
		s.sampler.Store(nil)
		return
	}
	s.sampler.Store(&samplerBox{s: sm})
}

// SetPageSource installs the file-page resolver for BackFile mappings.
// The source's frames must come from this space's frame pool.
func (s *Space) SetPageSource(src PageSource) {
	s.mu.Lock()
	s.source = src
	s.mu.Unlock()
}

func (s *Space) pageSource() PageSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.source
}

// NewSpace creates an address space. pta allocates page-table nodes;
// vmaLogCap sizes the VMA operation log (VMA churn between syncs).
func NewSpace(f *fabric.Fabric, id uint64, frames *GlobalFrames, pta *alloc.NodeAllocator, vmaLogCap uint64) *Space {
	return &Space{
		ID:     id,
		pt:     ds.NewRadixTree(f, pta), // 32-bit VPNs: 16 TiB of VA
		frames: f2frames(frames),
		vmaLog: replication.NewLog(f, vmaLogCap),
		trw:    make([]atomic.Pointer[trace.Writer], f.NumNodes()),
	}
}

func f2frames(gf *GlobalFrames) *GlobalFrames {
	if gf == nil {
		panic("memsys: NewSpace requires a GlobalFrames allocator")
	}
	return gf
}

// Attach creates node n's MMU for this space. pta allocates page-table
// nodes on faults; ls is the node's local frame pool (may be nil if the
// space never uses BackLocal). A node attaches to a space at most once
// (the VMA log keeps one replica cursor per node); Attach panics on a
// second live attachment from the same node.
func (s *Space) Attach(n *fabric.Node, pta *alloc.NodeAllocator, ls *LocalStore, tlbCap int) *MMU {
	s.mu.Lock()
	for _, x := range s.mmus {
		if x.node.ID() == n.ID() {
			s.mu.Unlock()
			panic(fmt.Sprintf("memsys: node %d already attached to space %d", n.ID(), s.ID))
		}
	}
	s.mu.Unlock()
	m := &MMU{
		space: s,
		node:  n,
		pta:   pta,
		local: ls,
		vmas:  &vmaSM{},
		tlb:   newTLB(tlbCap),
	}
	m.vmaRep = s.vmaLog.Replica(n, m.vmas)
	s.mu.Lock()
	s.mmus = append(s.mmus, m)
	s.mu.Unlock()
	return m
}

// Detach removes an MMU from the shootdown registry and the VMA log's
// recycle constraint.
func (s *Space) Detach(m *MMU) {
	s.mu.Lock()
	for i, x := range s.mmus {
		if x == m {
			s.mmus = append(s.mmus[:i], s.mmus[i+1:]...)
			break
		}
	}
	remaining := 0
	for _, x := range s.mmus {
		if x.node.ID() == m.node.ID() {
			remaining++
		}
	}
	s.mu.Unlock()
	if remaining == 0 {
		s.vmaLog.Deregister(m.node, m.node.ID())
	}
}

// shootdown invalidates vpn from every other attached MMU's TLB — the
// rack-wide TLB shootdown of §3.3, modeled as one IPI per remote MMU.
func (s *Space) shootdown(from *MMU, vpn uint64) {
	if brokenSkipShootdown.Load() {
		return
	}
	var buf [shootdownStackMMUs]*MMU
	targets := s.peers(from, buf[:0])
	for _, m := range targets {
		m.tlb.invalidate(vpn)
		from.node.ChargeNS(ipiCostNS)
	}
	s.ackStores(from, targets)
	from.stats.ShootdownsSent.Add(uint64(len(targets)))
	s.emit(from.node, trace.KShootdown, vpn, uint64(len(targets)))
}

// shootdownBatch invalidates every vpn in vpns from every other attached
// MMU's TLB with ONE modeled IPI per remote MMU for the whole batch — the
// batched-migration amortization: a tiering step that moves a thousand
// pages interrupts each peer once, not a thousand times.
func (s *Space) shootdownBatch(from *MMU, vpns []uint64) {
	if len(vpns) == 0 || brokenSkipShootdown.Load() {
		return
	}
	var buf [shootdownStackMMUs]*MMU
	targets := s.peers(from, buf[:0])
	for _, m := range targets {
		for _, vpn := range vpns {
			m.tlb.invalidate(vpn)
		}
		from.node.ChargeNS(ipiCostNS)
	}
	s.ackStores(from, targets)
	from.stats.ShootdownsSent.Add(uint64(len(targets)))
	s.emit(from.node, trace.KShootdown, vpns[0], uint64(len(targets)))
}

// shootdownStackMMUs is how many shootdown targets fit in the array a
// shootdown gathers them into on its stack; a larger rack's list is
// allocated.
const shootdownStackMMUs = 8

// peers appends every attached MMU but from to dst: the targets of from's
// shootdown.
func (s *Space) peers(from *MMU, dst []*MMU) []*MMU {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.mmus {
		if m != from {
			dst = append(dst, m)
		}
	}
	return dst
}

// ackStores is the shootdown IPI's acknowledgement: it takes and drops the
// frame lock of every target's node and then of from's, so each store
// that checked its translation before the invalidation has landed when it
// returns (MMU.writeFrame). The caller has invalidated from's own TLB
// already. Host-side; it charges nothing.
func (s *Space) ackStores(from *MMU, targets []*MMU) {
	for _, m := range targets {
		s.ackNode(m)
	}
	s.ackNode(from)
}

// ackNode takes and drops the frame lock of m's node.
func (s *Space) ackNode(m *MMU) {
	mu := &s.frames.nodeMu[m.node.ID()]
	mu.Lock()
	mu.Unlock()
}

// ipiCostNS is the modeled cost of one cross-node interrupt.
const ipiCostNS = 1500

// MapError describes an address-space operation failure.
type MapError struct {
	Op  string
	VA  uint64
	Why string
}

func (e *MapError) Error() string {
	return fmt.Sprintf("memsys: %s va=%#x: %s", e.Op, e.VA, e.Why)
}
