// Package faultbox implements FlacOS's system-level fault-isolation
// abstraction (paper §3.6).
//
// Existing systems aggregate state HORIZONTALLY: each subsystem (memory
// manager, file system, IPC) holds a little of every application's state,
// so recovering one application means touching every subsystem and every
// subsystem means touching every application. A fault box instead
// consolidates ONE application's state VERTICALLY along its execution
// flow — its page table and pages, its execution context, its
// communication endpoints, its stack and heap — so the complete state set
// can be snapshotted, destroyed or recovered on another node as a unit,
// bounding the blast radius of a fault to the box it hit.
//
// Adaptive redundancy (§3.6) layers on top: by task criticality a box gets
// no redundancy, periodic checkpointing, eager (per-quiesce) replication,
// or N-modular execution with output voting.
package faultbox

import (
	"encoding/binary"
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/reliability"
	"flacos/internal/memsys"
)

// Fixed virtual layout inside every box's address space.
const (
	HeapVA  = 0x1000_0000
	StackVA = 0x7000_0000
)

// AppState lets an application contribute its logical state to the box's
// vertical snapshot (optional).
type AppState interface {
	Snapshot() []byte
	Restore([]byte)
}

// Redundancy is the protection level adaptive redundancy assigns.
type Redundancy int

// Redundancy levels, in increasing cost and protection.
const (
	RedNone       Redundancy = iota // best effort
	RedCheckpoint                   // periodic vertical checkpoints
	RedReplicate                    // checkpoint after every Quiesce call
	RedNModular                     // N-modular execution with voting
)

// RedundancyFor maps task criticality (0 = throwaway, 3 = critical) to a
// redundancy level — the adaptive policy of §3.6.
func RedundancyFor(criticality int) Redundancy {
	switch {
	case criticality <= 0:
		return RedNone
	case criticality == 1:
		return RedCheckpoint
	case criticality == 2:
		return RedReplicate
	default:
		return RedNModular
	}
}

// Config describes a box's resources.
type Config struct {
	HeapPages   uint64
	StackPages  uint64
	Criticality int
}

// Manager owns the rack's boxes and the shared resources they draw from.
type Manager struct {
	fab    *fabric.Fabric
	frames *memsys.GlobalFrames
	arena  *alloc.Arena

	mu     sync.Mutex
	boxes  map[string]*Box
	nextID uint64
}

// NewManager creates a box manager over the rack's memory resources.
func NewManager(f *fabric.Fabric, frames *memsys.GlobalFrames, arena *alloc.Arena) *Manager {
	return &Manager{
		fab:    f,
		frames: frames,
		arena:  arena,
		boxes:  make(map[string]*Box),
	}
}

// Boxes returns the number of live boxes.
func (mgr *Manager) Boxes() int {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return len(mgr.boxes)
}

// Box is one application's vertically consolidated state.
type Box struct {
	Name string
	mgr  *Manager
	cfg  Config
	node *fabric.Node

	space *memsys.Space
	mmu   *memsys.MMU
	app   AppState
	ck    *reliability.Checkpointer
	red   Redundancy

	destroyed bool
}

// Create builds a box hosted on node, with its heap and stack mapped in a
// private address space backed by global memory (so the box's memory
// survives its host node's crash).
func (mgr *Manager) Create(name string, node *fabric.Node, cfg Config, app AppState) (*Box, error) {
	mgr.mu.Lock()
	if _, dup := mgr.boxes[name]; dup {
		mgr.mu.Unlock()
		return nil, fmt.Errorf("faultbox: box %q exists", name)
	}
	mgr.nextID++
	id := mgr.nextID
	mgr.mu.Unlock()

	b := &Box{
		Name: name,
		mgr:  mgr,
		cfg:  cfg,
		node: node,
		app:  app,
		red:  RedundancyFor(cfg.Criticality),
	}
	b.space = memsys.NewSpace(mgr.fab, id, mgr.frames, mgr.arena.NodeAllocator(node, 0), 256)
	b.mmu = b.space.Attach(node, mgr.arena.NodeAllocator(node, 0), memsys.NewLocalStore(node), 128)
	if err := b.mmu.MMap(HeapVA, cfg.HeapPages, memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		return nil, err
	}
	if err := b.mmu.MMap(StackVA, cfg.StackPages, memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		return nil, err
	}
	ckCap := (cfg.HeapPages+cfg.StackPages+2)*(memsys.PageSize+16) + 1<<16
	b.ck = reliability.NewCheckpointer(mgr.fab, node, ckCap)

	mgr.mu.Lock()
	mgr.boxes[name] = b
	mgr.mu.Unlock()
	return b, nil
}

// MMU gives the application access to the box's memory.
func (b *Box) MMU() *memsys.MMU { return b.mmu }

// Node returns the box's current host node.
func (b *Box) Node() *fabric.Node { return b.node }

// Redundancy returns the box's assigned protection level.
func (b *Box) Redundancy() Redundancy { return b.red }

// regions enumerates the box's mapped regions.
func (b *Box) regions() [](struct{ va, pages uint64 }) {
	return []struct{ va, pages uint64 }{
		{HeapVA, b.cfg.HeapPages},
		{StackVA, b.cfg.StackPages},
	}
}

// Checkpoint takes one vertical snapshot: every RESIDENT page of the box's
// regions plus the application's logical state, saved as one unit. This is
// the single-operation state capture the fault box exists for — no
// per-subsystem coordination.
func (b *Box) Checkpoint() error {
	if b.destroyed {
		return fmt.Errorf("faultbox: checkpoint of destroyed box %q", b.Name)
	}
	var out []byte
	var count uint32
	page := make([]byte, memsys.PageSize)
	body := make([]byte, 0, 1<<16)
	for _, r := range b.regions() {
		for i := uint64(0); i < r.pages; i++ {
			va := r.va + i*memsys.PageSize
			if !b.mmu.PTEOf(va).Valid() {
				continue // never touched: stays a hole
			}
			if err := b.mmu.Read(va, page); err != nil {
				return err
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint64(hdr[:], va)
			body = append(body, hdr[:]...)
			body = append(body, page...)
			count++
		}
	}
	var appBytes []byte
	if b.app != nil {
		appBytes = b.app.Snapshot()
	}
	out = binary.LittleEndian.AppendUint32(out, count)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(appBytes)))
	out = append(out, appBytes...)
	b.ck.Save(out, 0)
	return nil
}

// Quiesce is the application's consistency point hook: under RedReplicate
// it takes an immediate checkpoint, under RedCheckpoint the manager's
// periodic sweep handles it, otherwise it is free.
func (b *Box) Quiesce() error {
	if b.red == RedReplicate {
		return b.Checkpoint()
	}
	return nil
}

// liveNode returns a non-crashed node for teardown work.
func (mgr *Manager) liveNode() *fabric.Node {
	for i := 0; i < mgr.fab.NumNodes(); i++ {
		if n := mgr.fab.Node(i); !n.Crashed() {
			return n
		}
	}
	panic("faultbox: every node in the rack is down")
}

// releaseResources unmaps the box's regions and detaches its MMU. If the
// host node is dead the work runs through a temporary MMU on a live node —
// possible precisely because the box's page table and frames live in
// global memory, not on the dead host.
func (b *Box) releaseResources() {
	m := b.mmu
	if b.node.Crashed() {
		b.space.Detach(b.mmu) // lift the dead replica's log constraint
		via := b.mgr.liveNode()
		m = b.space.Attach(via, b.mgr.arena.NodeAllocator(via, 0), memsys.NewLocalStore(via), 16)
	}
	for _, r := range b.regions() {
		_ = m.MUnmap(r.va, r.pages)
	}
	b.space.Detach(m)
}

// Destroy tears down the complete box in one operation: unmap every
// region (releasing frames) and detach the MMU. Other boxes are
// untouched — the isolation property.
func (b *Box) Destroy() {
	if b.destroyed {
		return
	}
	b.destroyed = true
	b.releaseResources()
	b.mgr.mu.Lock()
	delete(b.mgr.boxes, b.Name)
	b.mgr.mu.Unlock()
}

// RecoverOn rebuilds the box on target from its newest checkpoint: fresh
// address space, restored pages, restored application state. The old box
// (whose host may have crashed) is abandoned; its global frames are
// released when possible. Returns the replacement box.
func (b *Box) RecoverOn(target *fabric.Node, app AppState) (*Box, error) {
	data, _, ok := b.ck.Latest(target)
	if !ok {
		return nil, fmt.Errorf("faultbox: box %q has no checkpoint", b.Name)
	}
	// Drop the registry entry for the dead instance so the name is free.
	b.mgr.mu.Lock()
	delete(b.mgr.boxes, b.Name)
	b.mgr.mu.Unlock()
	nb, err := b.mgr.Create(b.Name, target, b.cfg, app)
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(data)
	off := 4
	for i := uint32(0); i < count; i++ {
		va := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if err := nb.mmu.Write(va, data[off:off+memsys.PageSize]); err != nil {
			return nil, err
		}
		off += memsys.PageSize
	}
	appLen := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if app != nil && appLen > 0 {
		app.Restore(data[off : off+int(appLen)])
	}
	return nb, nil
}
