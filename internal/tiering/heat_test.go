package tiering

import (
	"cmp"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// TestHeatMapFoldSemantics checks decay, dominant-node selection, share
// computation, and fade-out against hand-computed values.
func TestHeatMapFoldSemantics(t *testing.T) {
	h := NewHeatMap(2)
	for i := 0; i < 10; i++ {
		h.Sample(0, 7, false)
	}
	for i := 0; i < 2; i++ {
		h.Sample(1, 7, true)
	}
	h.Sample(1, 9, false)

	hot, faded := h.FoldEpoch(0.5, nil, nil)
	if len(faded) != 0 {
		t.Fatalf("first fold faded %v", faded)
	}
	if len(hot) != 2 || hot[0].VPN != 7 || hot[1].VPN != 9 {
		t.Fatalf("hot = %+v, want pages 7 and 9 in vpn order", hot)
	}
	p := hot[0]
	if p.Heat != 12 || p.Node != 0 || p.Share != 10.0/12.0 {
		t.Fatalf("page 7 = %+v, want heat 12, node 0, share 10/12", p)
	}
	if hot[1].Node != 1 || hot[1].Heat != 1 {
		t.Fatalf("page 9 = %+v, want heat 1 on node 1", hot[1])
	}

	// No further samples: heat halves each fold. Page 9 (heat 1) fades at
	// the second idle fold (0.25 < 0.5); page 7 (heat 12) takes longer.
	hot, faded = h.FoldEpoch(0.5, nil, nil)
	if len(faded) != 0 || len(hot) != 2 || hot[0].Heat != 6 || hot[1].Heat != 0.5 {
		t.Fatalf("idle fold 1: hot=%+v faded=%v", hot, faded)
	}
	hot, faded = h.FoldEpoch(0.5, nil, nil)
	if len(hot) != 1 || hot[0].VPN != 7 || !reflect.DeepEqual(faded, []uint64{9}) {
		t.Fatalf("idle fold 2: hot=%+v faded=%v, want page 9 faded", hot, faded)
	}
	if h.Tracked() != 1 {
		t.Fatalf("tracked = %d after fade, want 1", h.Tracked())
	}
}

// TestHeatMapDominantTie: equal heat on two nodes picks the lowest id.
func TestHeatMapDominantTie(t *testing.T) {
	h := NewHeatMap(3)
	h.Sample(2, 5, false)
	h.Sample(1, 5, false)
	hot, _ := h.FoldEpoch(0.5, nil, nil)
	if len(hot) != 1 || hot[0].Node != 1 || hot[0].Share != 0.5 {
		t.Fatalf("tie fold = %+v, want node 1 (lowest id), share 0.5", hot)
	}
}

// TestHeatMapIgnoresBogusNodes: out-of-range node ids must not corrupt the
// per-node slices.
func TestHeatMapIgnoresBogusNodes(t *testing.T) {
	h := NewHeatMap(2)
	h.Sample(-1, 3, false)
	h.Sample(2, 3, false)
	h.Sample(99, 3, true)
	if h.Tracked() != 0 {
		t.Fatalf("bogus nodes created heat state: tracked=%d", h.Tracked())
	}
}

// TestHeatMapFoldDeterministic: two trackers fed the same samples in
// different orders fold to identical snapshots — the property the tiering
// experiment's bit-reproducibility rests on.
func TestHeatMapFoldDeterministic(t *testing.T) {
	a, b := NewHeatMap(4), NewHeatMap(4)
	// An LCG walk over pages/nodes, replayed forwards into a and (per
	// round) reversed into b.
	const n = 5000
	type s struct {
		node int
		vpn  uint64
	}
	seq := make([]s, n)
	x := uint64(12345)
	for i := range seq {
		x = x*6364136223846793005 + 1442695040888963407
		seq[i] = s{node: int(x>>32) % 4, vpn: (x >> 12) % 1024}
	}
	for _, e := range seq {
		a.Sample(e.node, e.vpn, false)
	}
	for i := len(seq) - 1; i >= 0; i-- {
		b.Sample(seq[i].node, seq[i].vpn, true)
	}
	hotA, fadedA := a.FoldEpoch(0.5, nil, nil)
	hotB, fadedB := b.FoldEpoch(0.5, nil, nil)
	if !reflect.DeepEqual(hotA, hotB) || !reflect.DeepEqual(fadedA, fadedB) {
		t.Fatal("folds differ for identical sample multisets")
	}
	for i := 1; i < len(hotA); i++ {
		if hotA[i-1].VPN >= hotA[i].VPN {
			t.Fatalf("hot not vpn-sorted at %d", i)
		}
	}
}

// TestHeatMapConcurrentSampling is the -race proof that the sharded
// HeatMap (the per-access heat tracker; no single-lock map sits on the
// translate path) takes concurrent Sample traffic from every
// node while FoldEpoch runs, without races and without losing a sample.
// decay=1 and floor=0 make heat a conserved quantity, so the final fold
// must account for every access exactly.
func TestHeatMapConcurrentSampling(t *testing.T) {
	const (
		nodes      = 4
		perNode    = 20000
		pages      = 512
		foldRounds = 50
	)
	h := NewHeatMap(nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			x := uint64(node + 1)
			for i := 0; i < perNode; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				h.Sample(node, (x>>16)%pages, i%3 == 0)
			}
		}(n)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < foldRounds; i++ {
			h.FoldEpoch(1.0, nil, nil)
		}
	}()
	wg.Wait()
	<-done

	hot, _ := h.FoldEpoch(1.0, nil, nil)
	total := 0.0
	for _, p := range hot {
		total += p.Heat
	}
	if want := float64(nodes * perNode); total != want {
		t.Fatalf("conserved heat = %v, want %v: samples lost or duplicated", total, want)
	}
}

// TestFoldEpochReusesBuffers: a fold appends into the caller's buffers, so
// a daemon folding a fixed tracked set every step allocates nothing after
// its first fold — and sampling a page already tracked allocates nothing
// either. Pages 0-15 are sampled every epoch and stay hot; pages 16-31 are
// sampled once before the first fold and fade out at the third.
func TestFoldEpochReusesBuffers(t *testing.T) {
	h := NewHeatMap(4)
	epoch := func() {
		for vpn := uint64(0); vpn < 16; vpn++ {
			h.Sample(int(vpn%4), vpn, vpn%2 == 0)
		}
	}
	for vpn := uint64(16); vpn < 32; vpn++ {
		h.Sample(1, vpn, false)
	}
	epoch()
	hot, faded := h.FoldEpoch(0.5, nil, nil)
	if len(hot) != 32 || len(faded) != 0 {
		t.Fatalf("first fold: %d hot, %d faded; want 32, 0", len(hot), len(faded))
	}
	for range 2 {
		epoch()
		hot, faded = h.FoldEpoch(0.5, hot[:0], faded[:0]) // heat 0.5, then 0.25: pages 16-31 fade
	}
	if len(faded) != 16 || faded[0] != 16 {
		t.Fatalf("second fold faded %v, want pages 16-31", faded)
	}
	allocs := testing.AllocsPerRun(20, func() {
		epoch()
		hot, faded = h.FoldEpoch(0.5, hot[:0], faded[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady fold made %v allocations, want 0", allocs)
	}
	if len(hot) != 16 || len(faded) != 0 || hot[15].VPN != 15 {
		t.Fatalf("steady fold: %d hot (last %+v), %d faded", len(hot), hot[len(hot)-1], len(faded))
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which allocation counts are not the ones a normal build makes.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestHeatMapSampleAllocs: a page that fades leaves its state to the next
// new page of its shard, so a tracked set that turns over — here sixteen
// pages sampled once, faded three folds later and sampled again as new
// pages — allocates nothing once it has reached its largest size.
func TestHeatMapSampleAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	h := NewHeatMap(4)
	var (
		hot   []PageStat
		faded []uint64
	)
	wave := func() {
		for vpn := uint64(16); vpn < 32; vpn++ {
			h.Sample(int(vpn%4), vpn, false)
		}
		for i := 0; i < 3; i++ {
			hot, faded = h.FoldEpoch(0.5, hot[:0], faded[:0])
		}
		if len(faded) != 16 || h.Tracked() != 0 {
			t.Fatalf("wave: %d faded, %d still tracked; want 16, 0", len(faded), h.Tracked())
		}
	}
	wave()
	wave()
	if a := testing.AllocsPerRun(20, wave); a != 0 {
		t.Fatalf("a wave of new pages made %v allocations, want 0", a)
	}
}

// TestHeatMapAgainstModel holds the sharded open-addressed tracker to a
// plain map over a seeded stream: pages enter, fade out and come back
// while their neighbours in the probe runs stay, so growth, collisions
// and backward-shift removal are all exercised. Every fold must return
// exactly the model's pages, heats, dominant nodes and faded pages.
func TestHeatMapAgainstModel(t *testing.T) {
	const nodes, pages, rounds = 3, 4096, 30
	h := NewHeatMap(nodes)
	type state struct {
		epoch [nodes]uint32
		heat  [nodes]float64
	}
	model := map[uint64]*state{}
	fadedTotal := 0
	x := uint64(42)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 16
	}
	for round := 0; round < rounds; round++ {
		// Each round samples a different window of the pages, so most of
		// the tracked set fades within a few folds and is replaced.
		lo := next() % pages
		for i := 0; i < 3000; i++ {
			vpn := (lo + next()%512) % pages * 7 // spaced page numbers
			node := int(next() % nodes)
			h.Sample(node, vpn, false)
			st := model[vpn]
			if st == nil {
				st = &state{}
				model[vpn] = st
			}
			st.epoch[node]++
		}
		var want []PageStat
		var wantFaded []uint64
		for vpn, st := range model {
			total, best, bestNode := 0.0, 0.0, 0
			for n := range st.heat {
				v := st.heat[n]*0.5 + float64(st.epoch[n])
				st.heat[n], st.epoch[n] = v, 0
				total += v
				if v > best {
					best, bestNode = v, n
				}
			}
			if total < fadeFloor {
				delete(model, vpn)
				wantFaded = append(wantFaded, vpn)
				continue
			}
			want = append(want, PageStat{VPN: vpn, Heat: total, Node: bestNode, Share: best / total})
		}
		slices.SortFunc(want, func(a, b PageStat) int { return cmp.Compare(a.VPN, b.VPN) })
		slices.Sort(wantFaded)
		hot, faded := h.FoldEpoch(0.5, nil, nil)
		fadedTotal += len(faded)
		if !slices.Equal(hot, want) || !slices.Equal(faded, wantFaded) {
			t.Fatalf("round %d: fold returned %d hot and %d faded pages, the model %d and %d (or their values differ)",
				round, len(hot), len(faded), len(want), len(wantFaded))
		}
		if h.Tracked() != len(model) {
			t.Fatalf("round %d: tracked %d, model %d", round, h.Tracked(), len(model))
		}
	}
	if fadedTotal < pages {
		t.Fatalf("only %d pages faded in %d rounds: the removal path is barely exercised", fadedTotal, rounds)
	}
}
