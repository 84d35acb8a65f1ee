package memsys

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
)

// env bundles one simulated rack with the memory system bootstrapped.
type env struct {
	fab    *fabric.Fabric
	frames *GlobalFrames
	arena  *alloc.Arena
}

func newEnv(t *testing.T, nodes int) *env {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 48 << 20, Nodes: nodes})
	return &env{
		fab:    f,
		frames: NewGlobalFrames(f, 2048), // 8 MiB of pages
		arena:  alloc.NewArena(f, 24<<20),
	}
}

func (e *env) space(id uint64) *Space {
	return NewSpace(e.fab, id, e.frames, e.arena.NodeAllocator(e.fab.Node(0), 0), 1024)
}

func (e *env) attach(s *Space, node int) *MMU {
	n := e.fab.Node(node)
	return s.Attach(n, e.arena.NodeAllocator(n, 0), NewLocalStore(n), 64)
}

func TestPTEEncoding(t *testing.T) {
	g := MakeGlobalPTE(0x1234000, true)
	if !g.Valid() || !g.Writable() || !g.Global() || g.COW() {
		t.Fatalf("flags wrong: %v", g)
	}
	if g.GlobalPhys() != 0x1234000 {
		t.Fatalf("phys = %#x", g.GlobalPhys())
	}
	l := MakeLocalPTE(3, 77, false)
	if l.Global() || l.Writable() {
		t.Fatalf("local flags wrong: %v", l)
	}
	if node, idx := l.LocalFrame(); node != 3 || idx != 77 {
		t.Fatalf("local frame = %d/%d", node, idx)
	}
	c := g.WithCOW()
	if !c.COW() || c.Writable() {
		t.Fatalf("WithCOW wrong: %v", c)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unaligned global frame should panic")
			}
		}()
		MakeGlobalPTE(0x1001, false)
	}()
	if PTE(0).String() != "pte<invalid>" {
		t.Fatal("invalid PTE string")
	}
}

func TestPTEQuickRoundTrip(t *testing.T) {
	prop := func(frame uint32, node uint8, w bool) bool {
		phys := uint64(frame) << PageShift
		g := MakeGlobalPTE(phys, w)
		if g.GlobalPhys() != phys || g.Writable() != w {
			return false
		}
		l := MakeLocalPTE(int(node), frame, w)
		gotNode, gotIdx := l.LocalFrame()
		return gotNode == int(node) && gotIdx == frame && l.Writable() == w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalFramesAllocRefUnref(t *testing.T) {
	e := newEnv(t, 2)
	n0, n1 := e.fab.Node(0), e.fab.Node(1)
	phys := e.frames.Alloc(n0)
	if phys%PageSize != 0 || !e.frames.Contains(phys) {
		t.Fatalf("frame %#x", phys)
	}
	if e.frames.RefCount(n0, phys) != 1 {
		t.Fatalf("refcount = %d", e.frames.RefCount(n0, phys))
	}
	e.frames.Ref(n1, phys) // cross-node ref
	if e.frames.Unref(n0, phys) {
		t.Fatal("freed while still referenced")
	}
	if !e.frames.Unref(n1, phys) {
		t.Fatal("last unref did not free")
	}
	// Freed frame gets recycled, zeroed.
	phys2 := e.frames.Alloc(n1)
	if phys2 != phys {
		t.Fatalf("recycled %#x, want %#x", phys2, phys)
	}
	buf := make([]byte, PageSize)
	n1.InvalidateRange(fabric.GPtr(phys2), PageSize)
	n1.Read(fabric.GPtr(phys2), buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("recycled frame byte %d = %d", i, b)
		}
	}
}

// TestGlobalFramesAllocNoPageBuffer: Alloc zero-fills from the one shared
// zero page. A frame dirtied, freed and allocated again — so the zero fill
// has real work to do — costs no allocation once the node's cache-line
// objects are warm, and reads back zero.
func TestGlobalFramesAllocNoPageBuffer(t *testing.T) {
	e := newEnv(t, 1)
	n := e.fab.Node(0)
	dirty := bytes.Repeat([]byte{0xa5}, PageSize)
	var phys uint64
	cycle := func() {
		phys = e.frames.Alloc(n)
		n.Write(fabric.GPtr(phys), dirty)
		n.FlushRange(fabric.GPtr(phys), PageSize)
		e.frames.Unref(n, phys)
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("Alloc of a dirty recycled frame made %v allocations, want 0", a)
	}
	if again := e.frames.Alloc(n); again != phys {
		t.Fatalf("recycled %#x, want %#x", again, phys)
	}
	buf := make([]byte, PageSize)
	e.fab.ReadAtHome(fabric.GPtr(phys), buf)
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatal("Alloc did not zero the recycled frame")
	}
}

func TestGlobalFramesConcurrentRefUnref(t *testing.T) {
	e := newEnv(t, 4)
	phys := e.frames.Alloc(e.fab.Node(0))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := e.fab.Node(w)
			for i := 0; i < 200; i++ {
				e.frames.Ref(n, phys)
				e.frames.Unref(n, phys)
			}
		}(w)
	}
	wg.Wait()
	if got := e.frames.RefCount(e.fab.Node(0), phys); got != 1 {
		t.Fatalf("refcount = %d, want 1", got)
	}
}

func TestLocalStore(t *testing.T) {
	e := newEnv(t, 1)
	ls := NewLocalStore(e.fab.Node(0))
	a := ls.Alloc()
	b := ls.Alloc()
	if a == b {
		t.Fatal("duplicate local frames")
	}
	ls.page(a)[0] = 0xEE
	ls.Free(a)
	c := ls.Alloc()
	if c != a {
		t.Fatalf("free list not reused: %d", c)
	}
	if ls.page(c)[0] != 0 {
		t.Fatal("recycled local frame not zeroed")
	}
	if ls.Allocated() != 2 {
		t.Fatalf("Allocated = %d", ls.Allocated())
	}
}

func TestMMapFaultReadWriteSingleNode(t *testing.T) {
	e := newEnv(t, 1)
	s := e.space(1)
	m := e.attach(s, 0)
	const va = 0x10000
	if err := m.MMap(va, 4, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 3*PageSize)
	if err := m.Write(va+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(va+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	faults := m.Stats().PageFaults
	if faults == 0 {
		t.Fatal("no page faults recorded")
	}
}

func TestCrossNodeSharedAddressSpace(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	const va = 0x200000
	// Node 0 maps and writes; node 1 must see both the mapping (via the
	// replicated VMA log) and the data (via the shared page table).
	if err := m0.MMap(va, 2, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	msg := []byte("written on node 0, read on node 1")
	if err := m0.Write(va+PageSize-10, msg); err != nil { // crosses a page
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m1.Read(va+PageSize-10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("node 1 read %q", got)
	}
}

func TestSegfaultOnUnmapped(t *testing.T) {
	e := newEnv(t, 1)
	s := e.space(1)
	m := e.attach(s, 0)
	if err := m.Read(0xdead000, make([]byte, 8)); err == nil {
		t.Fatal("read of unmapped VA should fail")
	}
}

func TestWriteToReadOnlyFails(t *testing.T) {
	e := newEnv(t, 1)
	s := e.space(1)
	m := e.attach(s, 0)
	if err := m.MMap(0x30000, 1, ProtRead, BackGlobal); err != nil {
		t.Fatal(err)
	}
	// Fault the page in with a read first.
	if err := m.Read(0x30000, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x30000, []byte{1}); err == nil {
		t.Fatal("write to read-only mapping should fail")
	}
}

func TestMMapOverlapRejected(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	if err := m0.MMap(0x40000, 4, ProtRead, BackGlobal); err != nil {
		t.Fatal(err)
	}
	// Overlap detected on a DIFFERENT node: the VMA table is replicated.
	if err := m1.MMap(0x40000+2*PageSize, 4, ProtRead, BackGlobal); err == nil {
		t.Fatal("overlapping mmap from another node should fail")
	}
}

func TestMUnmapReleasesFrames(t *testing.T) {
	e := newEnv(t, 1)
	s := e.space(1)
	m := e.attach(s, 0)
	const va = 0x50000
	if err := m.MMap(va, 2, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(va, make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	phys := m.PTEOf(va).GlobalPhys()
	if err := m.MUnmap(va, 2); err != nil {
		t.Fatal(err)
	}
	if m.PTEOf(va).Valid() {
		t.Fatal("PTE survives munmap")
	}
	if e.frames.RefCount(m.Node(), phys) != 0 {
		t.Fatal("frame not released")
	}
	if err := m.Read(va, make([]byte, 8)); err == nil {
		t.Fatal("read after munmap should fault")
	}
	if err := m.MUnmap(va, 2); err == nil {
		t.Fatal("double munmap should fail")
	}
}

func TestLocalBackingAndMigration(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	const va = 0x60000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackLocal); err != nil {
		t.Fatal(err)
	}
	msg := []byte("node-local page content")
	if err := m0.Write(va, msg); err != nil {
		t.Fatal(err)
	}
	if m0.PTEOf(va).Global() {
		t.Fatal("BackLocal page allocated in global memory")
	}
	// Node 1 touches it: the page must migrate to global memory.
	got := make([]byte, len(msg))
	if err := m1.Read(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("migrated read = %q", got)
	}
	if !m1.PTEOf(va).Global() {
		t.Fatal("page not migrated to global tier")
	}
	migrations := m1.Stats().Migrations
	if migrations != 1 {
		t.Fatalf("migrations = %d", migrations)
	}
	// Node 0 still sees the same contents after migration.
	got0 := make([]byte, len(msg))
	if err := m0.Read(va, got0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got0, msg) {
		t.Fatalf("owner read after migration = %q", got0)
	}
}

func TestDedupMergesIdenticalPagesAndCOWBreaks(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	const vaA, vaB, vaC = 0x100000, 0x200000, 0x300000
	for _, va := range []uint64{vaA, vaB, vaC} {
		if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
			t.Fatal(err)
		}
	}
	same := bytes.Repeat([]byte{7}, PageSize)
	diff := bytes.Repeat([]byte{9}, PageSize)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m0.Write(vaA, same))
	must(m0.Write(vaB, same))
	must(m0.Write(vaC, diff))

	if merged := m0.DedupPass(); merged != 1 {
		t.Fatalf("merged = %d, want 1", merged)
	}
	pa, pb := m0.PTEOf(vaA), m0.PTEOf(vaB)
	if pa.GlobalPhys() != pb.GlobalPhys() {
		t.Fatal("identical pages not sharing a frame")
	}
	if e.frames.RefCount(m0.Node(), pa.GlobalPhys()) != 2 {
		t.Fatalf("shared frame refcount = %d", e.frames.RefCount(m0.Node(), pa.GlobalPhys()))
	}
	// Reads still correct from the other node.
	got := make([]byte, PageSize)
	must(m1.Read(vaB, got))
	if !bytes.Equal(got, same) {
		t.Fatal("deduped page content wrong")
	}
	// Writing one of the sharers must COW-break, not corrupt the other.
	must(m1.Write(vaB, diff))
	must(m0.Read(vaA, got))
	if !bytes.Equal(got, same) {
		t.Fatal("COW break corrupted the sibling page")
	}
	must(m1.Read(vaB, got))
	if !bytes.Equal(got, diff) {
		t.Fatal("COW page lost its write")
	}
	cow := m1.Stats().COWBreaks
	if cow != 1 {
		t.Fatalf("COW breaks = %d", cow)
	}
	if e.frames.RefCount(m0.Node(), pa.GlobalPhys()) != 1 {
		t.Fatal("refcount not dropped after COW break")
	}
}

func TestConcurrentFaultsOnePageOneFrame(t *testing.T) {
	e := newEnv(t, 4)
	s := e.space(1)
	mmus := make([]*MMU, 4)
	for i := range mmus {
		mmus[i] = e.attach(s, i)
	}
	const va = 0x700000
	if err := mmus[0].MMap(va, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, m := range mmus {
		wg.Add(1)
		go func(m *MMU) {
			defer wg.Done()
			buf := make([]byte, 8)
			if err := m.Read(va, buf); err != nil {
				t.Errorf("read: %v", err)
			}
		}(m)
	}
	wg.Wait()
	phys := mmus[0].PTEOf(va).GlobalPhys()
	for i, m := range mmus {
		if m.PTEOf(va).GlobalPhys() != phys {
			t.Fatalf("node %d sees different frame", i)
		}
	}
	if e.frames.RefCount(mmus[0].Node(), phys) != 1 {
		t.Fatalf("refcount = %d (losing faulters must free their frames)",
			e.frames.RefCount(mmus[0].Node(), phys))
	}
}

func TestTLBHitsRecorded(t *testing.T) {
	e := newEnv(t, 1)
	s := e.space(1)
	m := e.attach(s, 0)
	if err := m.MMap(0x80000, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		if err := m.Read(0x80000, buf); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := m.Stats().TLBHits, m.Stats().TLBMisses
	if hits < 3 || misses == 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	m.FlushTLB()
	m.Read(0x80000, buf)
	misses2 := m.Stats().TLBMisses
	if misses2 <= misses {
		t.Fatal("flush did not cause a TLB miss")
	}
}

func TestDetachDeregistersVMALog(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	s.Detach(m1)
	// With node 1 detached, node 0 can push far more VMA ops than the log
	// capacity without node 1 ever syncing.
	for i := uint64(0); i < 2000; i++ {
		va := 0x1000000 + i*PageSize
		if err := m0.MMap(va, 1, ProtRead, BackGlobal); err != nil {
			t.Fatal(err)
		}
	}
}
