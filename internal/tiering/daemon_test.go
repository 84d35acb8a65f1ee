package tiering

import (
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
	if !e.mmus[0].DemoteToCold(basePage) {
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
// when the challenger is DisplaceFactor hotter than the coldest resident,
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

	// Page 1 gets modest heat — above LocalHeat but NOT DisplaceFactor
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
	if st.HintVetoes == 0 || st.DemotedWarm != 0 {
		t.Fatalf("stats = %+v, want vetoes and no demotions", st)
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

// TestDaemonStartStop: background mode promotes a hot page without manual
// Step calls, and Stop is idempotent.
func TestDaemonStartStop(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 1)
	d := New(e.s, e.mmus, Config{Interval: time.Millisecond}, nil)
	d.Attach()
	defer d.Detach()
	d.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 8; i++ {
			e.read(t, 1, 0)
		}
		if tier, node := e.tierOf(0); tier == memsys.TierLocal && node == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background daemon never promoted the hot page")
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	d.Stop()
	if d.Stats().Steps == 0 {
		t.Fatal("no steps recorded")
	}
}

// TestDaemonDrainSpillsAndBlocksPromotion: marking a node drained spills
// its managed local pages back to warm, refuses new local promotions
// toward it (even for a blazing-hot dominant page), and clearing the
// flag restores normal placement — the tiering half of the self-healing
// re-place stage.
func TestDaemonDrainSpillsAndBlocksPromotion(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 2)
	d := New(e.s, e.mmus, Config{}, nil)
	d.Attach()
	defer d.Detach()

	// Page 0 earns a local frame on node 1 the normal way.
	for i := 0; i < 16; i++ {
		e.read(t, 1, 0)
	}
	d.Step()
	if tier, node := e.tierOf(0); tier != memsys.TierLocal || node != 1 {
		t.Fatalf("setup: tier=%v node=%d, want local on node 1", tier, node)
	}

	// Drain node 1: the next step must spill page 0 to warm even though
	// nothing else wants the frame, and page 1 — hot and dominated by
	// node 1 — must NOT be promoted there.
	d.SetNodeDrained(1, true)
	if !d.NodeDrained(1) {
		t.Fatal("NodeDrained(1) = false after SetNodeDrained(1, true)")
	}
	for i := 0; i < 16; i++ {
		e.read(t, 1, 1)
	}
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatalf("drained node's local page not spilled (tier=%v)", tier)
	}
	if tier, _ := e.tierOf(1); tier == memsys.TierLocal {
		t.Fatal("page promoted to a drained node")
	}
	if st := d.Stats(); st.DrainEvicted != 1 {
		t.Fatalf("DrainEvicted = %d, want 1", st.DrainEvicted)
	}

	// Rejoin: clearing the flag lets the hot page take its local frame.
	d.SetNodeDrained(1, false)
	for i := 0; i < 16; i++ {
		e.read(t, 1, 1)
	}
	d.Step()
	if tier, node := e.tierOf(1); tier != memsys.TierLocal || node != 1 {
		t.Fatalf("after rejoin: tier=%v node=%d, want local on node 1", tier, node)
	}
	if st := d.Stats(); st.DrainEvicted != 1 {
		t.Fatalf("DrainEvicted grew after rejoin: %d", st.DrainEvicted)
	}
}

// TestDaemonDrainOutranksHintVeto: a sched placement hint normally
// protects a node's pages from demotion, but a drained node forfeits the
// truce — the spill proceeds hints notwithstanding.
func TestDaemonDrainOutranksHintVeto(t *testing.T) {
	e := newTierEnv(t, 2)
	e.mapPages(t, 1)
	h := &fakeHints{node: 1, ok: true}
	d := New(e.s, e.mmus, Config{}, h)
	d.Attach()
	defer d.Detach()

	for i := 0; i < 16; i++ {
		e.read(t, 1, 0)
	}
	d.Step()
	if tier, node := e.tierOf(0); tier != memsys.TierLocal || node != 1 {
		t.Fatalf("setup: tier=%v node=%d, want local on node 1", tier, node)
	}

	d.SetNodeDrained(1, true)
	d.Step()
	if tier, _ := e.tierOf(0); tier != memsys.TierWarm {
		t.Fatalf("hinted drain spill blocked (tier=%v)", tier)
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
