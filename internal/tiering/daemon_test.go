package tiering

import (
	"runtime"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/memsys"
)

// tierEnv is a small rack: one space attached on every node, each node
// with a local store, TLB big enough that nothing evicts.
type tierEnv struct {
	f    *fabric.Fabric
	s    *memsys.Space
	mmus []*memsys.MMU
}

func newTierEnv(t *testing.T, nodes int) *tierEnv {
	t.Helper()
	f := fabric.New(fabric.Config{
		GlobalSize: 48 << 20,
		Nodes:      nodes,
		Latency:    fabric.DefaultLatency(),
	})
	frames := memsys.NewGlobalFrames(f, 4096)
	arena := alloc.NewArena(f, 24<<20)
	s := memsys.NewSpace(f, 1, frames, arena.NodeAllocator(f.Node(0), 0), 4096)
	e := &tierEnv{f: f, s: s}
	for n := 0; n < nodes; n++ {
		e.mmus = append(e.mmus, s.Attach(f.Node(n),
			arena.NodeAllocator(f.Node(n), 0), memsys.NewLocalStore(f.Node(n)), 4096))
	}
	return e
}

const basePage = uint64(0x40000000 >> memsys.PageShift)

// mapPages maps and faults in n pages starting at basePage via node 0, so
// every page starts in warm global memory.
func (e *tierEnv) mapPages(t *testing.T, n int) {
	t.Helper()
	if err := e.mmus[0].MMap(basePage<<memsys.PageShift, uint64(n),
		memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		t.Fatal(err)
	}
	buf := []byte{1}
	for i := 0; i < n; i++ {
		if err := e.mmus[0].Write((basePage+uint64(i))<<memsys.PageShift, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// read issues one sampled access to page basePage+i from the given node.
func (e *tierEnv) read(t *testing.T, node, i int) {
	t.Helper()
	buf := make([]byte, 8)
	if err := e.mmus[node].Read((basePage+uint64(i))<<memsys.PageShift, buf); err != nil {
		t.Fatal(err)
	}
}

func (e *tierEnv) tierOf(i int) (memsys.Tier, int) {
	return e.mmus[0].TierOf(basePage + uint64(i))
}

// TestDaemonPromotesHotPageToDominantNode: sustained access from one node
// pulls a warm page into that node's local store, end to end through the
// sampler hook.
func TestDaemonPromotesHotPageToDominantNode(t *testing.T) {
	e := newTierEnv(t, 3)
	e.mapPages(t, 1)
	d := New(e.s, e.mmus, Config{}, nil)
	d.Attach()
	defer d.Detach()

	for i := 0; i < 16; i++ {
		e.read(t, 1, 0)
	}
	d.Step()
	if tier, node := e.tierOf(0); tier != memsys.TierLocal || node != 1 {
		t.Fatalf("after hot step: tier=%v node=%d, want local on node 1", tier, node)
	}
	st := d.Stats()
	if st.PromotedLocal != 1 || st.FailedMoves != 0 {
		t.Fatalf("stats = %+v, want 1 clean local promotion", st)
	}
}

// TestDaemonPressureDemotion: fading alone never demotes — an idle local
// page keeps its frame while the store is uncontended — but a hotter
// challenger displaces the faded resident down to warm, and warm-budget
// pressure then pushes it to the cold tier (faded pages carry zero heat,
// so they are the first victims).
func TestDaemonPressureDemotion(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 4)
	d := New(e.s, e.mmus, Config{LocalBudgetPages: 1, WarmBudgetPages: 2}, nil)
	d.Attach()
	defer d.Detach()

	for i := 0; i < 16; i++ {
		e.read(t, 0, 0)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierLocal {
		t.Fatalf("setup: tier=%v, want local", tier)
	}

	for i := 0; i < 10; i++ { // idle: the page fades out of the tracker
		d.Step()
	}
	if tier, _ := e.tierOf(0); tier != memsys.TierLocal {
		t.Fatalf("idle page demoted without pressure (tier=%v)", tier)
	}
	if st := d.Stats(); st.DemotedWarm != 0 || st.DemotedCold != 0 {
		t.Fatalf("stats = %+v, want no demotions while uncontended", st)
	}

	// A hot challenger fills the one-frame local store: the faded resident
	// is displaced down to warm, and the next step installs the challenger.
	for i := 0; i < 16; i++ {
		e.read(t, 0, 1)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatalf("faded resident not displaced to warm (tier=%v)", tier)
	}
	d.Step()
	if tier, node := e.tierOf(1); tier != memsys.TierLocal || node != 0 {
		t.Fatalf("challenger tier=%v/%d, want local on node 0", tier, node)
	}

	// Warm-budget pressure: two managed warm pages with live heat overflow
	// the budget of 2, and the faded page 0 is the coldest — it goes cold.
	d.Prime(basePage+2, memsys.TierWarm, -1)
	d.Prime(basePage+3, memsys.TierWarm, -1)
	e.read(t, 0, 2)
	e.read(t, 0, 3)
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierCold {
		t.Fatalf("faded warm page not evicted under pressure (tier=%v)", tier)
	}
	if st := d.Stats(); st.DemotedCold != 1 || st.FailedMoves != 0 {
		t.Fatalf("stats = %+v, want 1 clean cold eviction", st)
	}
}

// TestDaemonColdPromotion: accesses to a cold page first earn it a warm
// slot, and sustained dominance then earns it a local frame.
func TestDaemonColdPromotion(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 1)
	if len(e.mmus[0].DemoteToColdBatch([]uint64{basePage})) != 1 {
		t.Fatal("setup demote failed")
	}
	d := New(e.s, e.mmus, Config{}, nil)
	d.Prime(basePage, memsys.TierCold, -1)
	d.Attach()
	defer d.Detach()

	e.read(t, 1, 0)
	e.read(t, 1, 0)
	e.read(t, 1, 0)
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatalf("tier=%v, want warm after moderate heat", tier)
	}
	for i := 0; i < 16; i++ {
		e.read(t, 1, 0)
	}
	d.Step()
	if tier, node := e.tierOf(0); tier != memsys.TierLocal || node != 1 {
		t.Fatalf("tier=%v/%d, want local on node 1", tier, node)
	}
	st := d.Stats()
	if st.PromotedWarm != 1 || st.PromotedLocal != 1 || st.FailedMoves != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDaemonWarmBudgetEviction: priming more warm pages than the premium
// budget allows evicts the coldest down to the cold tier.
func TestDaemonWarmBudgetEviction(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 4)
	d := New(e.s, e.mmus, Config{WarmBudgetPages: 2}, nil)
	d.Attach()
	defer d.Detach()
	for i := 0; i < 4; i++ {
		d.Prime(basePage+uint64(i), memsys.TierWarm, -1)
	}
	// Pages 0 and 1 stay warm; 2 and 3 are never touched.
	for i := 0; i < 4; i++ {
		e.read(t, 0, 0)
		e.read(t, 0, 1)
	}
	d.Step()
	for i, want := range []memsys.Tier{memsys.TierWarm, memsys.TierWarm, memsys.TierCold, memsys.TierCold} {
		if tier, _ := e.tierOf(i); tier != want {
			t.Fatalf("page %d: tier=%v, want %v", i, tier, want)
		}
	}
	if st := d.Stats(); st.Displaced != 2 || st.DemotedCold != 2 {
		t.Fatalf("stats = %+v, want 2 budget evictions", st)
	}
}

// TestDaemonLocalDisplacement: a full local store only gives up a frame
// when the challenger is displaceFactor hotter than the coldest resident,
// and the displaced page's slot goes to the challenger next step.
func TestDaemonLocalDisplacement(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 2)
	d := New(e.s, e.mmus, Config{LocalBudgetPages: 1}, nil)
	d.Attach()
	defer d.Detach()

	for i := 0; i < 16; i++ {
		e.read(t, 0, 0)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierLocal {
		t.Fatal("setup: page 0 not local")
	}

	// Page 1 gets modest heat — above LocalHeat but NOT displaceFactor
	// beyond page 0's decayed heat (8): no churn.
	for i := 0; i < 9; i++ {
		e.read(t, 0, 1)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierLocal {
		t.Fatal("hysteresis violated: lukewarm challenger displaced resident")
	}
	if st := d.Stats(); st.Displaced != 0 {
		t.Fatalf("Displaced = %d, want 0", st.Displaced)
	}

	// Now page 1 runs clearly hotter: resident 0 is displaced, and the
	// following step installs page 1 in the freed frame.
	for i := 0; i < 64; i++ {
		e.read(t, 0, 1)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatal("hot challenger failed to displace cold resident")
	}
	d.Step()
	if tier, node := e.tierOf(1); tier != memsys.TierLocal || node != 0 {
		t.Fatalf("page 1: tier=%v/%d, want local on node 0", tier, node)
	}
	if st := d.Stats(); st.Displaced != 1 || st.FailedMoves != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// fakeHints scripts sched's placement answer.
type fakeHints struct {
	node int
	ok   bool
}

func (f *fakeHints) SpacePlacementHint(spaceID uint64, maxAge time.Duration) (int, bool) {
	return f.node, f.ok
}

// TestDaemonHintVeto: a sched placement hint for a node blocks demotions
// (here: budget displacement) from that node's local store until the hint
// expires.
func TestDaemonHintVeto(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 2)
	hints := &fakeHints{node: 0, ok: true}
	d := New(e.s, e.mmus, Config{LocalBudgetPages: 1}, hints)
	d.Attach()
	defer d.Detach()

	for i := 0; i < 16; i++ {
		e.read(t, 0, 0)
	}
	d.Step() // promotions are never vetoed: the hinted node GAINS pages
	if tier, _ := e.tierOf(0); tier != memsys.TierLocal {
		t.Fatal("setup: page not local")
	}

	// A far hotter challenger wants the frame, but node 0 is hinted: the
	// displacement is vetoed and the resident stays.
	for i := 0; i < 64; i++ {
		e.read(t, 0, 1)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierLocal {
		t.Fatal("veto ignored: hinted node lost its page")
	}
	st := d.Stats()
	if st.DemotedWarm != 0 {
		t.Fatalf("stats = %+v, want no demotions", st)
	}

	// Hint expires: the same pressure now displaces the resident, and the
	// challenger takes the frame on the following step.
	hints.ok = false
	for i := 0; i < 64; i++ {
		e.read(t, 0, 1)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatal("resident not displaced after hint expiry")
	}
	d.Step()
	if tier, node := e.tierOf(1); tier != memsys.TierLocal || node != 0 {
		t.Fatalf("challenger tier=%v/%d, want local on node 0", tier, node)
	}
}

// TestDaemonLearnsFromDemandMigration: when a remote access demand-migrates
// a local page to warm behind the daemon's back, the Migrated callback
// corrects the model — the next promotion plans from "warm", succeeds, and
// nothing resyncs.
func TestDaemonLearnsFromDemandMigration(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 1)
	d := New(e.s, e.mmus, Config{}, nil)
	d.Attach()
	defer d.Detach()

	for i := 0; i < 16; i++ {
		e.read(t, 0, 0)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierLocal {
		t.Fatal("setup: page not local")
	}

	// A write from node 1 demand-migrates the page to warm global memory.
	if err := e.mmus[1].Write(basePage<<memsys.PageShift, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatal("demand migration did not happen")
	}

	// Node 1 now dominates; one step is enough to land it locally there,
	// because the model already knows the page went warm.
	for i := 0; i < 32; i++ {
		e.read(t, 1, 0)
	}
	d.Step()
	if tier, node := e.tierOf(0); tier != memsys.TierLocal || node != 1 {
		t.Fatalf("tier=%v/%d, want local on node 1", tier, node)
	}
	if st := d.Stats(); st.FailedMoves != 0 {
		t.Fatalf("FailedMoves = %d: Migrated callback not folded in", st.FailedMoves)
	}
}

// TestDaemonResyncOnFailedMove: the daemon assumes an unknown hot page is
// cold; when the promote-from-cold fails (the page was already warm) it
// resyncs from the page table instead of believing its plan.
func TestDaemonResyncOnFailedMove(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 1)
	d := New(e.s, e.mmus, Config{}, nil)
	d.Attach()
	defer d.Detach()

	e.read(t, 0, 0)
	e.read(t, 0, 0)
	e.read(t, 0, 0)
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatalf("page moved unexpectedly")
	}
	if st := d.Stats(); st.FailedMoves != 1 || st.PromotedWarm != 0 {
		t.Fatalf("stats = %+v, want exactly one resynced failure", st)
	}
	d.Step() // model now says warm: no repeat attempt
	if st := d.Stats(); st.FailedMoves != 1 {
		t.Fatalf("FailedMoves = %d after resync, want still 1", d.Stats().FailedMoves)
	}
}

// TestDaemonDeterministic: two fresh racks running the same scripted
// workload step-for-step produce identical tier layouts, stats, and
// virtual clocks.
func TestDaemonDeterministic(t *testing.T) {
	type outcome struct {
		tiers [64]memsys.Tier
		nodes [64]int
		stats Stats
		ns    []uint64
	}
	run := func() outcome {
		e := newTierEnv(t, 3)
		e.mapPages(t, 64)
		d := New(e.s, e.mmus, Config{LocalBudgetPages: 8, WarmBudgetPages: 32}, nil)
		d.Attach()
		defer d.Detach()
		x := uint64(99)
		for round := 0; round < 6; round++ {
			for i := 0; i < 400; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				page := int(x>>20) % 64
				node := page % 3 // stable dominant accessor per page
				if x%8 == 0 {
					node = int(x>>40) % 3
				}
				e.read(t, node, page)
			}
			d.Step()
		}
		var o outcome
		for i := 0; i < 64; i++ {
			o.tiers[i], o.nodes[i] = e.tierOf(i)
		}
		o.stats = d.Stats()
		for n := 0; n < 3; n++ {
			o.ns = append(o.ns, e.f.Node(n).Stats().VirtualNS)
		}
		return o
	}
	a, b := run(), run()
	if a.tiers != b.tiers || a.nodes != b.nodes || a.stats != b.stats {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
	for i := range a.ns {
		if a.ns[i] != b.ns[i] {
			t.Fatalf("node %d virtual clock diverged: %d vs %d", i, a.ns[i], b.ns[i])
		}
	}
	if a.stats.PromotedLocal == 0 {
		t.Fatal("workload produced no local promotions; test proves nothing")
	}
}

// TestStepAllocationsSteady: a step over a sample stream that repeats
// every epoch reuses what the steps before it sized. The stream holds the
// daemon under both kinds of pressure without moving a page — a
// challenger for node 0's full local store that is not clearly hotter than
// its resident, and a cold page asking for the full premium tier that is
// not clearly hotter than the one warm page — so the heat fold and both
// displacement lists are rebuilt every step. Once two steps have sized
// the daemon's scratch, a step allocates nothing.
func TestStepAllocationsSteady(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 4)
	d := New(e.s, e.mmus, Config{LocalBudgetPages: 1, WarmBudgetPages: 1}, nil)
	d.Prime(basePage, memsys.TierLocal, 0) // the model's word is enough: nothing moves it
	d.Prime(basePage+2, memsys.TierWarm, -1)
	d.Prime(basePage+3, memsys.TierCold, -1)
	stream := func() {
		for i := 0; i < 16; i++ {
			d.Sample(0, basePage, false)
			d.Sample(0, basePage+1, false)
		}
		for i := 0; i < 4; i++ {
			d.Sample(1, basePage+2, false)
			d.Sample(1, basePage+3, false)
		}
	}
	step := func() {
		stream()
		d.Step()
	}
	step() // sizes the daemon's scratch
	step()
	// Averaged over runs, so a stray allocation by another goroutine of the
	// test binary does not count against the step.
	if a := testing.AllocsPerRun(10, step); a != 0 {
		t.Fatalf("steady step made %v allocations, want 0", a)
	}
	if st := d.Stats(); st.PromotedLocal+st.PromotedWarm+st.DemotedWarm+st.DemotedCold+st.FailedMoves != 0 {
		t.Fatalf("the stream moved pages: %+v", st)
	}
}

// TestFreshStepAllocationsFlat: a fresh daemon sizes each step buffer
// once, from a bound it already knows, instead of growing it append by
// append, so its first two steps make as many allocations over 16,384
// primed pages as over 1,024. The stream is the same shape at both spans:
// every page sampled once, a quarter of them (and eight more) warm over a
// warm budget of a quarter, and sixteen cold pages hot enough to displace
// warm ones, so the first step folds the whole span, builds both warm
// victim orders and evicts to the budget. The pages are primed, not
// mapped: every move fails and resyncs, which costs the same at both
// spans.
func TestFreshStepAllocationsFlat(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	mallocs := func(pages int) uint64 {
		e := newTierEnv(t, 2)
		d := New(e.s, e.mmus, Config{LocalBudgetPages: 4, WarmBudgetPages: pages / 4}, nil)
		for i := 0; i < pages; i++ {
			tier := memsys.TierCold
			if i < pages/4+8 {
				tier = memsys.TierWarm
			}
			d.Prime(basePage+uint64(i), tier, -1)
			d.Sample(i%2, basePage+uint64(i), false)
		}
		for i := pages - 16; i < pages; i++ {
			for k := 0; k < 3; k++ {
				d.Sample(i%2, basePage+uint64(i), false)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.Step()
		d.Step()
		runtime.ReadMemStats(&after)
		if st := d.Stats(); st.Displaced != 24 {
			t.Fatalf("%d pages: %d displaced, want 16 warm admissions and 8 budget evictions", pages, st.Displaced)
		}
		return after.Mallocs - before.Mallocs
	}
	// The least of three fresh daemons, so a stray allocation by another
	// goroutine of the test binary does not count against a span.
	least := func(pages int) uint64 {
		return min(mallocs(pages), mallocs(pages), mallocs(pages))
	}
	if small, large := least(1024), least(16384); small != large {
		t.Fatalf("a fresh daemon's first two steps made %d allocations over 1,024 pages and %d over 16,384", small, large)
	}
}

// ownerlessRack is a rack of the given size whose pages 0-3 are warm and
// 4-7 cold, under a daemon with a warm budget of four attached after
// set-up. Node n's clock is then charged charge[n] sim_ns, so the nodes
// stand in that order of idleness since Attach; with no translation since
// Attach, each node's time per access is its charge too.
func ownerlessRack(t *testing.T, charge ...int) (*tierEnv, *Daemon) {
	t.Helper()
	e := newTierEnv(t, len(charge))
	e.mapPages(t, 8)
	cold := []uint64{basePage + 4, basePage + 5, basePage + 6, basePage + 7}
	if got := e.mmus[0].DemoteToColdBatch(cold); len(got) != len(cold) {
		t.Fatalf("set-up demoted %d of %d pages", len(got), len(cold))
	}
	d := New(e.s, e.mmus, Config{WarmBudgetPages: 4}, nil)
	for i := 0; i < 8; i++ {
		tier := memsys.TierWarm
		if i >= 4 {
			tier = memsys.TierCold
		}
		d.Prime(basePage+uint64(i), tier, -1)
	}
	d.Attach()
	for n, ns := range charge {
		e.f.Node(n).ChargeNS(ns)
	}
	return e, d
}

// toggleStep warms pages 0-2 a little from node 0 and heats cold pages 4
// and 5 from node past PromoteHeat but short of LocalHeat, then steps:
// against the full warm budget the planner promotes both to warm and
// displaces the two coldest warm pages, 3 and then 0, to cold — four
// owner-less moves and nothing else. Node is the promoted pages'
// dominant accessor, and on a four-node rack page 3's number picks node 3
// by page number mod 4, so a step that charged either of those would
// run work on them.
func toggleStep(d *Daemon, node int) {
	for i := 0; i < 3; i++ {
		d.Sample(0, basePage+uint64(i), false)
	}
	for i := 0; i < 3; i++ {
		d.Sample(node, basePage+4, false)
		d.Sample(node, basePage+5, false)
	}
	d.Step()
}

// localStep makes warm page 2 hot on node 0 and cold page 3 hot on node
// 1, then steps: the planner promotes each to local DRAM on its node,
// two owned moves whose vacated frames are the step's only owner-less
// work.
func localStep(d *Daemon) {
	for i := 0; i < 16; i++ {
		d.Sample(0, basePage+2, false)
		d.Sample(1, basePage+3, false)
	}
	d.Step()
}

// wantTiers checks every page's tier (and owner, for a local page).
func wantTiers(t *testing.T, e *tierEnv, stage string, want [8]memsys.Tier) {
	t.Helper()
	for i := range want {
		if tier, node := e.tierOf(i); tier != want[i] || tier == memsys.TierLocal && node != localOwners[i] {
			t.Fatalf("%s: page %d is %v on node %d, want %v on node %d", stage, i, tier, node, want[i], localOwners[i])
		}
	}
}

// The tiers toggleStep and then localStep leave, as the planner decides
// them.
var (
	afterToggles = [8]memsys.Tier{memsys.TierCold, memsys.TierWarm, memsys.TierWarm, memsys.TierCold,
		memsys.TierWarm, memsys.TierWarm, memsys.TierCold, memsys.TierCold}
	afterLocals = [8]memsys.Tier{memsys.TierCold, memsys.TierWarm, memsys.TierLocal, memsys.TierLocal,
		memsys.TierWarm, memsys.TierWarm, memsys.TierCold, memsys.TierCold}
	localOwners = [8]int{2: 0, 3: 1}
)

// stepDeltas runs step and returns each node's fabric counters over it.
func stepDeltas(e *tierEnv, step func()) []fabric.NodeStatsSnapshot {
	before := make([]fabric.NodeStatsSnapshot, len(e.mmus))
	for n := range before {
		before[n] = e.f.Node(n).Stats()
	}
	step()
	for n := range before {
		before[n] = e.f.Node(n).Stats().Delta(before[n])
	}
	return before
}

// TestOwnerlessWorkRunsOnIdlestNode: on a three-node rack where node 0 is
// the busiest (and the slowest per access) and node 2 the idlest since
// Attach, the warm<->cold moves and the release of the frames local
// promotions vacate run on node 2, while each local promotion is charged
// to its destination and to it alone. The pages land where the planner
// put them.
func TestOwnerlessWorkRunsOnIdlestNode(t *testing.T) {
	lat := fabric.DefaultLatency()
	coldCopy := uint64(lat.ColdNS + (memsys.PageSize/fabric.LineSize-1)*lat.PerLineNS)
	e, d := ownerlessRack(t, 1_000_000_000, 100_000_000, 0)

	got := stepDeltas(e, func() { toggleStep(d, 0) })
	wantTiers(t, e, "after the toggles", afterToggles)
	if got[0] != (fabric.NodeStatsSnapshot{}) || got[1] != (fabric.NodeStatsSnapshot{}) {
		t.Fatalf("the toggles charged a busier node: node 0 %+v, node 1 %+v", got[0], got[1])
	}
	if got[2].VirtualNS < 4*coldCopy {
		t.Fatalf("node 2 was charged %d sim_ns for four toggles, under their cold copies alone (%d)", got[2].VirtualNS, 4*coldCopy)
	}

	// The destinations' charge for the promotions, from a twin rack that
	// makes the same two moves by hand and keeps the frames they vacate.
	twin, td := ownerlessRack(t, 1_000_000_000, 100_000_000, 0)
	toggleStep(td, 0)
	bare := stepDeltas(twin, func() {
		for n, vpn := range []uint64{basePage + 2, basePage + 3} {
			if moved, vacated := twin.mmus[n].PromoteToLocalBatch([]uint64{vpn}, nil); len(moved) != 1 || len(vacated) != 1 {
				t.Fatalf("twin: node %d promoted %d pages and vacated %d frames, want 1 and 1", n, len(moved), len(vacated))
			}
		}
	})

	// The executor's charge for two last Unrefs: a probe and a CAS each,
	// and a free-list push of a load, a store and a CAS.
	n2 := e.f.Node(2)
	line := e.f.Reserve(fabric.LineSize, fabric.LineSize)
	v := n2.VirtualNS()
	n2.ReadFresh(line, make([]byte, 8))
	fetchNS := n2.VirtualNS() - v
	v = n2.VirtualNS()
	n2.AtomicLoad64(line)
	atomicNS := n2.VirtualNS() - v

	got = stepDeltas(e, func() { localStep(d) })
	wantTiers(t, e, "after the local promotions", afterLocals)
	for n := 0; n < 2; n++ {
		if got[n] != bare[n] {
			t.Fatalf("node %d was charged %+v for its promotion, want the bare promotion's %+v", n, got[n], bare[n])
		}
	}
	if g := got[2]; g.Loads != 2 || g.Atomics != 8 || g.VirtualNS != 2*fetchNS+8*atomicNS {
		t.Fatalf("node 2 was charged %d line fetches, %d atomics, %d sim_ns; want the two releases' 2, 8, %d",
			g.Loads, g.Atomics, g.VirtualNS, 2*fetchNS+8*atomicNS)
	}
	if st := d.Stats(); st.FailedMoves != 0 || st.PromotedWarm != 2 || st.DemotedCold != 2 || st.PromotedLocal != 2 {
		t.Fatalf("stats = %+v, want two moves of each kind and no failure", st)
	}
}

// TestOwnerlessWorkSkipsCrashedNodes: two crashed nodes stay the idlest
// by clock, yet no step runs owner-less work on them, though one is the
// dominant accessor of the pages promoted to warm and the other's number
// is a demoted page's (its MMU would panic); the executor is the idlest
// node that can take the work, and the pages move exactly as on a rack
// where every node is up. With every node crashed nothing can take the
// work and it waits: no warm<->cold move runs and nothing is counted as
// failed.
func TestOwnerlessWorkSkipsCrashedNodes(t *testing.T) {
	e, d := ownerlessRack(t, 1_000_000_000, 100_000_000, 0, 0)
	e.f.Node(2).Crash()
	e.f.Node(3).Crash()
	twin, td := ownerlessRack(t, 1_000_000_000, 100_000_000, 0, 0)

	for _, s := range []struct {
		name string
		step func(*Daemon)
		want [8]memsys.Tier
	}{
		{"the toggles", func(d *Daemon) { toggleStep(d, 2) }, afterToggles},
		{"the local promotions", localStep, afterLocals},
	} {
		got := stepDeltas(e, func() { s.step(d) })
		s.step(td)
		wantTiers(t, e, "after "+s.name, s.want)
		wantTiers(t, twin, "twin, after "+s.name, s.want)
		if got[2] != (fabric.NodeStatsSnapshot{}) || got[3] != (fabric.NodeStatsSnapshot{}) {
			t.Fatalf("%s charged a crashed node: node 2 %+v, node 3 %+v", s.name, got[2], got[3])
		}
		if got[1].VirtualNS == 0 {
			t.Fatalf("%s charged node 1, the idlest node that can take the work, nothing", s.name)
		}
		if idle := e.f.Node(1).VirtualNS() - 100_000_000; e.f.Node(2).VirtualNS() >= idle || e.f.Node(3).VirtualNS() >= idle {
			t.Fatalf("after %s a crashed node is no longer idler than node 1", s.name)
		}
		if a, b := d.Stats(), td.Stats(); a != b {
			t.Fatalf("after %s: stats %+v, twin %+v", s.name, a, b)
		}
	}

	e.f.Node(0).Crash()
	e.f.Node(1).Crash()
	before := d.Stats()
	for i := 0; i < 3; i++ {
		d.Sample(0, basePage+6, false)
	}
	d.Step()
	if st := d.Stats(); st.PromotedWarm != before.PromotedWarm || st.DemotedCold != before.DemotedCold ||
		st.FailedMoves != before.FailedMoves || st.Displaced != before.Displaced {
		t.Fatalf("with no node to run it, owner-less work ran, failed or was counted: %+v, before %+v", st, before)
	}
	e.f.Node(0).Restart()
	if tier, _ := e.tierOf(6); tier != memsys.TierCold {
		t.Fatalf("page 6 is %v with no executor, want it still cold", tier)
	}
}

// TestOwnerlessWorkSkipsSlowestPerAccess: the node idlest by its clock is
// passed over when it is also the slowest per access, the node an even
// deal of the accesses would saturate first, and the idlest of the others
// runs the work. Node 2 here served no access since Attach, so all of its
// 100 M sim_ns count against one access, while nodes 0 and 1 served a
// thousand each (reads the daemon does not sample, so the plan is
// toggleStep's).
func TestOwnerlessWorkSkipsSlowestPerAccess(t *testing.T) {
	e, d := ownerlessRack(t, 1_000_000_000, 500_000_000, 100_000_000)
	e.s.SetSampler(nil)
	buf := make([]byte, 8)
	for n := 0; n < 2; n++ {
		for i := 0; i < 1000; i++ {
			if err := e.mmus[n].Read((basePage+7)<<memsys.PageShift, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.s.SetSampler(d)

	got := stepDeltas(e, func() { toggleStep(d, 0) })
	wantTiers(t, e, "after the toggles", afterToggles)
	if got[0] != (fabric.NodeStatsSnapshot{}) || got[2] != (fabric.NodeStatsSnapshot{}) {
		t.Fatalf("the toggles charged the busiest or the slowest node: node 0 %+v, node 2 %+v", got[0], got[2])
	}
	if got[1].VirtualNS == 0 {
		t.Fatal("the toggles charged node 1, the idlest node not the slowest per access, nothing")
	}
}
