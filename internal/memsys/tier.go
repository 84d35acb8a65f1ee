package memsys

import (
	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// This file is the memsys half of the tiering loop (internal/tiering holds
// the policy): explicit page movement between the rack's three memory
// tiers —
//
//	node-local DRAM  (fastest, private to one node, LocalStore frames)
//	global warm      (premium interconnect-attached memory)
//	global cold      (capacity / modeled-persistent tier: same frames,
//	                  PteCold set, every access pays the ColdNS surcharge)
//
// All moves are CAS-published against the shared page table under the
// coherence contract. Cold/warm toggles flip a PTE bit on a stationary
// frame, so a racing accessor either sees the old entry or the new one —
// the frame's bytes are the same either way. Frame-MOVING ops (local <->
// global) follow the unmap-before-copy protocol: CAS the entry to its
// busy form, purge every TLB, then copy and install — so a store that
// passed MMU.Write's generation check finished before the purge and is
// captured by the copy. Batch variants amortize the purge to ONE modeled
// IPI per remote MMU per batch via Space.shootdownBatch, issued between
// the busy-marking pass and the copy pass.

// Tier identifies which memory tier currently backs a page.
type Tier uint8

const (
	// TierNone means the page is not mapped.
	TierNone Tier = iota
	// TierLocal means a node-local DRAM frame backs the page.
	TierLocal
	// TierWarm means a premium global frame backs the page.
	TierWarm
	// TierCold means a cold-tier (capacity/persistent) frame backs the page.
	TierCold
)

func (t Tier) String() string {
	switch t {
	case TierLocal:
		return "local"
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	}
	return "none"
}

// TierOf reports the page's current tier and, for TierLocal, the owning
// node (-1 otherwise). One page-table read; the tiering daemon uses it to
// resync its model after a failed move.
func (m *MMU) TierOf(vpn uint64) (Tier, int) {
	p := PTE(m.space.pt.Get(m.node, vpn))
	switch {
	case !p.Valid():
		return TierNone, -1
	case !p.Global():
		node, _ := p.LocalFrame()
		return TierLocal, node
	case p.Cold():
		return TierCold, -1
	default:
		return TierWarm, -1
	}
}

// pageLines is the number of cache lines in one page — the unit charged
// for a whole-page tier move.
const pageLines = PageSize / fabric.LineSize

// traceTierWarm tags a KPromote instant whose destination is the warm
// global tier rather than a node-local store.
const traceTierWarm = ^uint64(0)

// promoteLocalBegin marks a warm or cold global page in-transit toward
// THIS node's local store. Fails (false) when the page is not an exclusive
// global mapping (COW/dedup-shared pages stay put), already mid-move, or a
// racing move wins the CAS. The caller must purge peer TLBs before calling
// promoteLocalFinish.
func (m *MMU) promoteLocalBegin(vpn uint64) (PTE, bool) {
	if m.local == nil {
		return 0, false
	}
	old := PTE(m.space.pt.Get(m.node, vpn))
	if !old.Valid() || !old.Global() || old.COW() || old.Busy() {
		return 0, false
	}
	if m.space.frames.RefCount(m.node, old.GlobalPhys()) != 1 {
		return 0, false // shared frame: promotion would fork the sharing
	}
	if !m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old), uint64(old|PteBusy)) {
		return 0, false
	}
	m.tlb.invalidate(vpn)
	return old, true
}

// promoteLocalFinish copies the frame and installs the local mapping for a
// page promoteLocalBegin marked busy. Fails only if the page was unmapped
// mid-move.
func (m *MMU) promoteLocalFinish(vpn uint64, old PTE) bool {
	phys := old.GlobalPhys()
	buf := make([]byte, PageSize)
	m.readFrame(old, 0, buf) // pays global (+cold) read for the transfer
	idx := m.local.Alloc()
	m.local.writeAt(idx, 0, buf)
	m.node.ChargeNS(pageLines * localAccessNS)
	neu := MakeLocalPTE(m.node.ID(), idx, old.Writable())
	if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old|PteBusy), uint64(neu)) {
		m.stats.Promotions.Add(1)
		m.space.emit(m.node, trace.KPromote, vpn, uint64(m.node.ID()))
		m.space.frames.Unref(m.node, phys)
		return true
	}
	m.local.Free(idx)
	return false
}

// promoteFromCold1 clears a page's cold bit, moving it back into premium
// global memory. The page copy device->DRAM is modeled as one whole-page
// cold access.
func (m *MMU) promoteFromCold1(vpn uint64) bool {
	old := PTE(m.space.pt.Get(m.node, vpn))
	if !old.Valid() || !old.Global() || !old.Cold() || old.Busy() {
		return false
	}
	neu := old &^ PteCold
	if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old), uint64(neu)) {
		m.node.ChargeColdAccess(pageLines)
		m.stats.Promotions.Add(1)
		m.space.emit(m.node, trace.KPromote, vpn, traceTierWarm)
		m.tlb.invalidate(vpn)
		return true
	}
	return false
}

// demoteToCold1 marks a warm global page cold. The page copy DRAM->device
// is modeled as one whole-page cold access.
func (m *MMU) demoteToCold1(vpn uint64) bool {
	old := PTE(m.space.pt.Get(m.node, vpn))
	if !old.Valid() || !old.Global() || old.Cold() || old.COW() || old.Busy() {
		return false
	}
	neu := old | PteCold
	if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old), uint64(neu)) {
		m.node.ChargeColdAccess(pageLines)
		m.stats.Demotions.Add(1)
		m.space.emit(m.node, trace.KDemote, vpn, 1)
		m.tlb.invalidate(vpn)
		return true
	}
	return false
}

// demoteGlobalBegin marks one of THIS node's local pages in-transit toward
// warm global memory — the owner-initiated inverse of migrateToGlobal,
// used when a page's heat no longer justifies private DRAM. The caller
// must purge peer TLBs before calling demoteGlobalFinish.
func (m *MMU) demoteGlobalBegin(vpn uint64) (PTE, bool) {
	old := PTE(m.space.pt.Get(m.node, vpn))
	if !old.Valid() || old.Global() || old.Busy() {
		return 0, false
	}
	if nodeID, _ := old.LocalFrame(); nodeID != m.node.ID() {
		return 0, false // only the owner demotes its local frames
	}
	if !m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old), uint64(old|PteBusy)) {
		return 0, false
	}
	m.tlb.invalidate(vpn)
	return old, true
}

// demoteGlobalFinish copies the local frame out to a fresh global frame
// and installs the warm mapping. Fails only if the page was unmapped
// mid-move.
func (m *MMU) demoteGlobalFinish(vpn uint64, old PTE) bool {
	_, idx := old.LocalFrame()
	var buf [PageSize]byte
	m.local.copyOut(idx, &buf)
	m.node.ChargeNS(pageLines * localAccessNS)
	phys := m.space.frames.AllocUninit(m.node)
	m.node.Write(fabric.GPtr(phys), buf[:])
	m.node.WriteBackRange(fabric.GPtr(phys), PageSize)
	m.node.InvalidateRange(fabric.GPtr(phys), PageSize)
	neu := MakeGlobalPTE(phys, old.Writable())
	if m.space.pt.CompareAndSwap(m.node, m.pta, vpn, uint64(old|PteBusy), uint64(neu)) {
		m.stats.Demotions.Add(1)
		m.space.emit(m.node, trace.KDemote, vpn, 0)
		m.local.Free(idx)
		return true
	}
	m.space.frames.Unref(m.node, phys)
	return false
}

// batch runs a bit-toggle op over vpns and finishes with one batched
// shootdown covering every page that actually changed. Returns the moved
// pages in input order. (Toggles keep the frame stationary, so purging
// peers after the CAS only delays their cold-accounting, never their data.)
func (m *MMU) batch(vpns []uint64, op func(uint64) bool) []uint64 {
	moved := make([]uint64, 0, len(vpns))
	for _, vpn := range vpns {
		if op(vpn) {
			moved = append(moved, vpn)
		}
	}
	m.space.shootdownBatch(m, moved)
	return moved
}

// batchMove runs the unmap-before-copy protocol over vpns: mark every
// page busy, purge every peer TLB with ONE IPI per remote MMU, then copy
// and install. Returns the pages that moved, in input order.
func (m *MMU) batchMove(vpns []uint64, begin func(uint64) (PTE, bool), finish func(uint64, PTE) bool) []uint64 {
	type pending struct {
		vpn uint64
		old PTE
	}
	pends := make([]pending, 0, len(vpns))
	busy := make([]uint64, 0, len(vpns))
	for _, vpn := range vpns {
		if old, ok := begin(vpn); ok {
			pends = append(pends, pending{vpn, old})
			busy = append(busy, vpn)
		}
	}
	m.space.shootdownBatch(m, busy) // purge peers BEFORE any copy
	moved := make([]uint64, 0, len(pends))
	for _, p := range pends {
		if finish(p.vpn, p.old) {
			moved = append(moved, p.vpn)
		}
	}
	return moved
}

// PromoteToLocalBatch pulls the given global pages into this node's local
// store, one shootdown IPI per remote MMU for the whole batch. Returns the
// pages that moved.
func (m *MMU) PromoteToLocalBatch(vpns []uint64) []uint64 {
	return m.batchMove(vpns, m.promoteLocalBegin, m.promoteLocalFinish)
}

// PromoteFromColdBatch moves the given cold pages back to the warm global
// tier. Returns the pages that moved.
func (m *MMU) PromoteFromColdBatch(vpns []uint64) []uint64 {
	return m.batch(vpns, m.promoteFromCold1)
}

// DemoteToColdBatch moves the given warm global pages to the cold tier.
// Returns the pages that moved.
func (m *MMU) DemoteToColdBatch(vpns []uint64) []uint64 {
	return m.batch(vpns, m.demoteToCold1)
}

// DemoteToGlobalBatch pushes the given pages from this node's local store
// to the warm global tier. Returns the pages that moved.
func (m *MMU) DemoteToGlobalBatch(vpns []uint64) []uint64 {
	return m.batchMove(vpns, m.demoteGlobalBegin, m.demoteGlobalFinish)
}

// PromoteToLocal is the single-page form of PromoteToLocalBatch.
func (m *MMU) PromoteToLocal(vpn uint64) bool {
	return len(m.PromoteToLocalBatch([]uint64{vpn})) == 1
}

// PromoteFromCold is the single-page form of PromoteFromColdBatch.
func (m *MMU) PromoteFromCold(vpn uint64) bool {
	return len(m.PromoteFromColdBatch([]uint64{vpn})) == 1
}

// DemoteToCold is the single-page form of DemoteToColdBatch.
func (m *MMU) DemoteToCold(vpn uint64) bool {
	return len(m.DemoteToColdBatch([]uint64{vpn})) == 1
}

// DemoteToGlobal is the single-page form of DemoteToGlobalBatch.
func (m *MMU) DemoteToGlobal(vpn uint64) bool {
	return len(m.DemoteToGlobalBatch([]uint64{vpn})) == 1
}
