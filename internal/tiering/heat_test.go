package tiering

import (
	"reflect"
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

	hot, faded := h.FoldEpoch(0.5, 0.5, nil, nil)
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
	hot, faded = h.FoldEpoch(0.5, 0.5, nil, nil)
	if len(faded) != 0 || len(hot) != 2 || hot[0].Heat != 6 || hot[1].Heat != 0.5 {
		t.Fatalf("idle fold 1: hot=%+v faded=%v", hot, faded)
	}
	hot, faded = h.FoldEpoch(0.5, 0.5, nil, nil)
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
	hot, _ := h.FoldEpoch(0.5, 0.5, nil, nil)
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
	hotA, fadedA := a.FoldEpoch(0.5, 0.5, nil, nil)
	hotB, fadedB := b.FoldEpoch(0.5, 0.5, nil, nil)
	if !reflect.DeepEqual(hotA, hotB) || !reflect.DeepEqual(fadedA, fadedB) {
		t.Fatal("folds differ for identical sample multisets")
	}
	for i := 1; i < len(hotA); i++ {
		if hotA[i-1].VPN >= hotA[i].VPN {
			t.Fatalf("hot not vpn-sorted at %d", i)
		}
	}
}

// TestHeatMapConcurrentSampling is the -race proof behind ISSUE 8's
// satellite 1: the sharded HeatMap (which replaces alloc.HotnessTracker
// on per-access hot paths) takes concurrent Sample traffic from every
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
			h.FoldEpoch(1.0, 0, nil, nil)
		}
	}()
	wg.Wait()
	<-done

	hot, _ := h.FoldEpoch(1.0, 0, nil, nil)
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
// sampled once before the first fold and fade out at the second.
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
	hot, faded := h.FoldEpoch(0.5, 1.0, nil, nil)
	if len(hot) != 32 || len(faded) != 0 {
		t.Fatalf("first fold: %d hot, %d faded; want 32, 0", len(hot), len(faded))
	}
	epoch()
	hot, faded = h.FoldEpoch(0.5, 1.0, hot[:0], faded[:0]) // pages 16-31 fade
	if len(faded) != 16 || faded[0] != 16 {
		t.Fatalf("second fold faded %v, want pages 16-31", faded)
	}
	allocs := testing.AllocsPerRun(20, func() {
		epoch()
		hot, faded = h.FoldEpoch(0.5, 1.0, hot[:0], faded[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady fold made %v allocations, want 0", allocs)
	}
	if len(hot) != 16 || len(faded) != 0 || hot[15].VPN != 15 {
		t.Fatalf("steady fold: %d hot (last %+v), %d faded", len(hot), hot[len(hot)-1], len(faded))
	}
}
