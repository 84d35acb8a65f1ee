package memsys

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
)

// TestTierPromoteDemoteCycle walks one page through every tier transition
// and asserts the Stats() promotion/demotion counters move with it.
func TestTierPromoteDemoteCycle(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	const va = 0x10000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	msg := []byte("tiered page content")
	if err := m0.Write(va, msg); err != nil {
		t.Fatal(err)
	}
	vpn := uint64(va >> PageShift)

	check := func(stage string, wantTier Tier, promotions, demotions uint64) {
		t.Helper()
		tier, _ := m0.TierOf(vpn)
		if tier != wantTier {
			t.Fatalf("%s: tier = %v, want %v", stage, tier, wantTier)
		}
		st := m0.Stats()
		if st.Promotions != promotions || st.Demotions != demotions {
			t.Fatalf("%s: promotions/demotions = %d/%d, want %d/%d",
				stage, st.Promotions, st.Demotions, promotions, demotions)
		}
		got := make([]byte, len(msg))
		if err := m0.Read(va, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%s: content = %q", stage, got)
		}
	}

	check("initial", TierWarm, 0, 0)
	if !movedOne(m0.DemoteToColdBatch([]uint64{vpn})) {
		t.Fatal("DemoteToCold failed")
	}
	check("after cold demote", TierCold, 0, 1)
	if movedOne(m0.DemoteToColdBatch([]uint64{vpn})) {
		t.Fatal("double cold demote should be a no-op")
	}
	if !movedOne(m0.PromoteFromColdBatch([]uint64{vpn})) {
		t.Fatal("PromoteFromCold failed")
	}
	check("after cold promote", TierWarm, 1, 1)
	if !movedOne(promoteLocal(m0, []uint64{vpn})) {
		t.Fatal("PromoteToLocal failed")
	}
	check("after local promote", TierLocal, 2, 1)
	if tier, node := m0.TierOf(vpn); tier != TierLocal || node != 0 {
		t.Fatalf("local tier owner = %v/%d", tier, node)
	}
	if !movedOne(m0.DemoteToGlobalBatch([]uint64{vpn})) {
		t.Fatal("DemoteToGlobal failed")
	}
	check("after local demote", TierWarm, 2, 2)

	// Cold pages stay writable; a later read must see the write.
	if !movedOne(m0.DemoteToColdBatch([]uint64{vpn})) {
		t.Fatal("re-demote failed")
	}
	msg = []byte("written while cold!")
	if err := m0.Write(va, msg); err != nil {
		t.Fatal(err)
	}
	check("write on cold page", TierCold, 2, 3)
}

// TestColdTierCharged asserts a cold page's accesses cost ColdNS more
// than the same access against warm global memory.
func TestColdTierCharged(t *testing.T) {
	lat := fabric.DefaultLatency()
	f := fabric.New(fabric.Config{GlobalSize: 48 << 20, Nodes: 1, Latency: lat})
	frames := NewGlobalFrames(f, 2048)
	arena := alloc.NewArena(f, 24<<20)
	s := NewSpace(f, 1, frames, arena.NodeAllocator(f.Node(0), 0), 1024)
	m := s.Attach(f.Node(0), arena.NodeAllocator(f.Node(0), 0), nil, 64)
	const va = 0x10000
	if err := m.MMap(va, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := m.Write(va, buf); err != nil { // fault it in
		t.Fatal(err)
	}

	cost := func() uint64 {
		before := f.Node(0).Stats().VirtualNS
		if err := m.Read(va, buf); err != nil {
			t.Fatal(err)
		}
		return f.Node(0).Stats().VirtualNS - before
	}
	warm := cost()
	if !movedOne(m.DemoteToColdBatch([]uint64{uint64(va >> PageShift)})) {
		t.Fatal("DemoteToCold failed")
	}
	cold := cost()
	if cold < warm+uint64(lat.ColdNS) {
		t.Fatalf("cold read cost %d, warm %d: missing ColdNS=%d surcharge",
			cold, warm, lat.ColdNS)
	}
}

// TestShootdownAllocatesNothing: a one-page shootdown and a batched one
// on a 4-MMU space gather their targets on the stack, so neither
// allocates, and each still interrupts all three peers.
func TestShootdownAllocatesNothing(t *testing.T) {
	e := newEnv(t, 4)
	s := e.space(1)
	mmus := make([]*MMU, 4)
	for i := range mmus {
		mmus[i] = e.attach(s, i)
	}
	if err := mmus[0].MMap(0, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for _, m := range mmus {
		if err := m.Read(0, buf); err != nil { // everyone caches the translation
			t.Fatal(err)
		}
	}
	vpns := []uint64{0}
	for name, fn := range map[string]func(){
		"shootdown":      func() { s.shootdown(mmus[0], 0) },
		"shootdownBatch": func() { s.shootdownBatch(mmus[0], vpns) },
	} {
		sent := mmus[0].Stats().ShootdownsSent
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s to 3 peers: %v allocations, want 0", name, a)
		}
		if got := mmus[0].Stats().ShootdownsSent - sent; got != 3*101 {
			t.Errorf("%s: %d IPIs sent over 101 calls, want %d", name, got, 3*101)
		}
	}
}

// TestBatchShootdownOneIPI asserts the batched tier moves interrupt each
// remote MMU once per batch, not once per page.
func TestBatchShootdownOneIPI(t *testing.T) {
	e := newEnv(t, 3)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	e.attach(s, 2) // the second peer
	const pages = 16
	if err := m0.MMap(0, pages, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	vpns := make([]uint64, pages)
	for i := range vpns {
		vpns[i] = uint64(i)
		if err := m1.Read(uint64(i)*PageSize, buf); err != nil { // warm node 1's TLB
			t.Fatal(err)
		}
	}
	moved := m0.DemoteToColdBatch(vpns)
	if len(moved) != pages {
		t.Fatalf("moved %d of %d", len(moved), pages)
	}
	// One IPI per peer for the whole batch: two peers, two shootdowns.
	if sent := m0.Stats().ShootdownsSent; sent != 2 {
		t.Fatalf("node 0 sent %d shootdowns for one batch to two peers", sent)
	}
	// The batch must still have invalidated node 1's stale TLB entries:
	// its next read re-translates and sees the cold PTE.
	if err := m1.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	p, _ := m1.TierOf(0)
	if p != TierCold {
		t.Fatalf("tier after batch = %v", p)
	}
}

// TestPromoteSharedFrameRefused: promotion would give one node a private
// copy of a frame other PTEs still reference (dedup sharing), so it must
// refuse while the refcount is above one.
func TestPromoteSharedFrameRefused(t *testing.T) {
	e := newEnv(t, 1)
	s := e.space(1)
	m := e.attach(s, 0)
	if err := m.MMap(0, 2, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	same := bytes.Repeat([]byte{0x5a}, PageSize)
	if err := m.Write(0, same); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(PageSize, same); err != nil {
		t.Fatal(err)
	}
	if merged := m.DedupPass(); merged != 1 {
		t.Fatalf("dedup merged %d", merged)
	}
	if movedOne(promoteLocal(m, []uint64{0})) {
		t.Fatal("promoted a dedup-shared frame")
	}
	if movedOne(m.DemoteToColdBatch([]uint64{0})) {
		t.Fatal("cold-demoted a COW frame")
	}
}

// TestSamplerHooks: the translate path reports every successful access
// (hit and miss paths) to the installed sampler, and demand migration
// reports through Migrated.
type recordingSampler struct {
	mu       sync.Mutex
	samples  map[uint64]int
	writes   int
	migrated []uint64
}

func (r *recordingSampler) Sample(node int, vpn uint64, write bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.samples == nil {
		r.samples = map[uint64]int{}
	}
	r.samples[vpn]++
	if write {
		r.writes++
	}
}

func (r *recordingSampler) Migrated(vpn uint64, fromNode int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.migrated = append(r.migrated, vpn)
}

func TestSamplerHooks(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	rs := &recordingSampler{}
	s.SetSampler(rs)
	const va = 0x40000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackLocal); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := m0.Write(va, buf); err != nil { // miss path
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // hit path
		if err := m0.Read(va, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Read(va, buf); err != nil { // remote access migrates
		t.Fatal(err)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	vpn := uint64(va >> PageShift)
	if rs.samples[vpn] < 5 {
		t.Fatalf("sampled %d accesses, want >= 5", rs.samples[vpn])
	}
	if rs.writes != 1 {
		t.Fatalf("sampled %d writes", rs.writes)
	}
	if len(rs.migrated) != 1 || rs.migrated[0] != vpn {
		t.Fatalf("migrated callback = %v", rs.migrated)
	}
	s.SetSampler(nil)
	n := rs.samples[vpn]
	if err := m0.Read(va, buf); err != nil {
		t.Fatal(err)
	}
	if rs.samples[vpn] != n {
		t.Fatal("sampler still called after SetSampler(nil)")
	}
}

// TestMigrateRacingWriter is the deterministic interleaving half of the
// migration race coverage: an owner keeps writing sequence-stamped
// records while a remote node's access migrates the page to global
// memory. Operations interleave at every step boundary; the gate is
// histcheck-style — no stale read (every read sees the latest published
// sequence) and no torn read (a record is internally consistent).
func TestMigrateRacingWriter(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	const va = 0x70000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackLocal); err != nil {
		t.Fatal(err)
	}
	record := func(seq byte) []byte {
		r := bytes.Repeat([]byte{seq}, 64)
		return r
	}
	checkRead := func(m *MMU, wantSeq byte, stage string) {
		t.Helper()
		got := make([]byte, 64)
		if err := m.Read(va, got); err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != got[0] {
				t.Fatalf("%s: torn read at byte %d: %v", stage, i, got[:8])
			}
		}
		if got[0] != wantSeq {
			t.Fatalf("%s: stale read: seq %d, want %d", stage, got[0], wantSeq)
		}
	}

	var seq byte
	write := func(m *MMU) {
		t.Helper()
		seq++
		if err := m.Write(va, record(seq)); err != nil {
			t.Fatal(err)
		}
	}

	// Interleaving: owner writes twice, remote read triggers migration,
	// owner writes THROUGH its now-stale mapping (the post-store PTE
	// re-validation must redo the chunk via the global frame), both
	// nodes read back.
	write(m0)
	write(m0)
	checkRead(m1, seq, "migrating read") // migrates local -> global
	if m1.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d", m1.Stats().Migrations)
	}
	write(m0) // owner's first write after losing the frame
	checkRead(m1, seq, "remote read after post-migration write")
	checkRead(m0, seq, "owner read after post-migration write")

	// Same protocol under a tiering move: a concurrent writer's store
	// races DemoteToCold's CAS; the re-validation redo keeps it.
	if !movedOne(m1.DemoteToColdBatch([]uint64{uint64(va >> PageShift)})) {
		t.Fatal("DemoteToCold failed")
	}
	write(m0)
	checkRead(m1, seq, "read after write to cold page")
}

// TestMigrateRacingWriterStress is the concurrent half: a writer node
// hammers a sequence-stamped record while readers on two other nodes pull
// it cross-node and a tiering stand-in bounces the page between the warm
// and cold tiers. Runs under -race. The fabric's cross-node atomicity
// unit is one word, so the gate is word-granular, histcheck-style: every
// observed word must be a value the writer actually published (no torn
// sub-word garbage, no stale zeroed frame), each reader's view of a word
// never travels back in time, and the final record holds the last write.
func TestMigrateRacingWriterStress(t *testing.T) {
	e := newEnv(t, 3)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	m2 := e.attach(s, 2)
	const va = 0x90000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackGlobal); err != nil {
		t.Fatal(err)
	}
	record := func(seq uint64) []byte {
		rec := make([]byte, 64)
		for w := 0; w < 8; w++ {
			for b := 0; b < 8; b++ {
				rec[w*8+b] = byte(seq >> (8 * b))
			}
		}
		return rec
	}
	if err := m0.Write(va, record(1)); err != nil {
		t.Fatal(err)
	}
	vpn := uint64(va >> PageShift)

	const iters = 2000
	var stop atomic.Bool
	var invalid, backwards atomic.Uint64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer on node 0
		defer wg.Done()
		for i := uint64(2); i <= iters; i++ {
			if err := m0.Write(va, record(i)); err != nil {
				panic(err)
			}
		}
		stop.Store(true)
	}()

	reader := func(m *MMU) {
		defer wg.Done()
		var last uint64
		buf := make([]byte, 64)
		for !stop.Load() {
			if err := m.Read(va, buf); err != nil {
				panic(err)
			}
			for w := 0; w < 8; w++ {
				var v uint64
				for b := 7; b >= 0; b-- {
					v = v<<8 | uint64(buf[w*8+b])
				}
				if v < 1 || v > iters {
					invalid.Add(1)
				}
				if w == 0 {
					if v < last {
						backwards.Add(1)
					}
					last = v
				}
			}
		}
	}
	wg.Add(2)
	go reader(m1)
	go reader(m2)

	wg.Add(1)
	go func() { // tiering daemon stand-in: bounce the page between tiers
		defer wg.Done()
		for !stop.Load() {
			m1.DemoteToColdBatch([]uint64{vpn})
			m1.PromoteFromColdBatch([]uint64{vpn})
		}
	}()
	wg.Wait()

	if invalid.Load() != 0 || backwards.Load() != 0 {
		t.Fatalf("invalid=%d backwards=%d", invalid.Load(), backwards.Load())
	}
	// The final state must hold the last write everywhere (no lost write).
	got := make([]byte, 64)
	if err := m2.Read(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, record(iters)) {
		t.Fatalf("lost write: final record %x", got[:16])
	}
}

// TestMigratePlantedBrokenShootdown is the planted-broken self-test: with
// shootdowns deliberately suppressed, the migration race coverage above
// MUST be able to catch the resulting stale TLB window — proving the gate
// has teeth. A stale entry pointing at a freed local frame serves reads
// of abandoned memory.
func TestMigratePlantedBrokenShootdown(t *testing.T) {
	SetBrokenSkipShootdown(true)
	defer SetBrokenSkipShootdown(false)
	e := newEnv(t, 3)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	m2 := e.attach(s, 2)
	const va = 0xa0000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackLocal); err != nil {
		t.Fatal(err)
	}
	if err := m0.Write(va, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	// Node 2 reads via its own translation, caching a global PTE after
	// migration... but with shootdowns broken, node 2 first warms its
	// TLB, THEN node 1 cold-demotes, and node 2's stale warm entry skips
	// the cold surcharge — detectable as a coherence/accounting break.
	buf := make([]byte, 64)
	if err := m2.Read(va, buf); err != nil { // migrates; node 2 caches PTE
		t.Fatal(err)
	}
	vpn := uint64(va >> PageShift)
	if !movedOne(m1.DemoteToColdBatch([]uint64{vpn})) {
		t.Fatal("demote failed")
	}
	// With the broken shootdown, node 2 still translates to the stale
	// warm PTE from its TLB.
	if p, ok := m2.tlbPeek(vpn); !ok || p.Cold() {
		t.Fatal("planted break not observable: TLB entry missing or already cold")
	}
	SetBrokenSkipShootdown(false)
	// With shootdowns restored, the same move invalidates the peer TLB.
	if !movedOne(m1.PromoteFromColdBatch([]uint64{vpn})) {
		t.Fatal("promote failed")
	}
	if _, ok := m2.tlbPeek(vpn); ok {
		t.Fatal("batched shootdown did not invalidate the peer TLB")
	}
}

func (m *MMU) tlbPeek(vpn uint64) (PTE, bool) { return m.tlb.get(vpn) }

// TestTierOpsRefuseBogusPages: unmapped and remote-local pages are not
// movable by this node.
func TestTierOpsRefuseBogusPages(t *testing.T) {
	e := newEnv(t, 2)
	s := e.space(1)
	m0 := e.attach(s, 0)
	m1 := e.attach(s, 1)
	if movedOne(m0.DemoteToColdBatch([]uint64{999})) || movedOne(m0.PromoteFromColdBatch([]uint64{999})) || movedOne(promoteLocal(m0, []uint64{999})) || movedOne(m0.DemoteToGlobalBatch([]uint64{999})) {
		t.Fatal("tier op succeeded on unmapped page")
	}
	const va = 0xb0000
	if err := m0.MMap(va, 1, ProtRead|ProtWrite, BackLocal); err != nil {
		t.Fatal(err)
	}
	if err := m0.Write(va, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	vpn := uint64(va >> PageShift)
	if movedOne(m1.DemoteToGlobalBatch([]uint64{vpn})) {
		t.Fatal("node 1 demoted node 0's local frame")
	}
	if tier, node := m1.TierOf(vpn); tier != TierLocal || node != 0 {
		t.Fatalf("TierOf = %v/%d", tier, node)
	}
}

// movedOne reports whether a one-page batch moved its page.
func movedOne(moved []uint64) bool { return len(moved) == 1 }

// promoteLocal is PromoteToLocalBatch with the frames it vacated released
// on the promoting node.
func promoteLocal(m *MMU, vpns []uint64) []uint64 {
	moved, vacated := m.PromoteToLocalBatch(vpns, nil)
	m.ReleaseFrames(vacated)
	return moved
}
