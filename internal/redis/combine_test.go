package redis

import (
	"bytes"
	"fmt"
	"testing"

	"flacos/internal/flacdk/delegation"
)

// combineRig is a deterministic single-goroutine combining harness: one
// owner combiner on node 0 and one client per remaining slot. Posts,
// sweeps and completions are driven explicitly, so fan-in composition per
// sweep is exact.
func newCombineRig(t *testing.T, nodes, slots int) (*Combiner, []*CombineClient) {
	t.Helper()
	f, s := newTestRackStore(t, nodes, RackStoreConfig{MaxViews: 16})
	dom := delegation.NewDomain(f, slots)
	cb := NewCombiner(s.Attach(f.Node(0)), dom)
	clients := make([]*CombineClient, slots)
	for i := range clients {
		clients[i] = NewCombineClient(dom, f.Node(i%nodes), i)
	}
	return cb, clients
}

func TestCombineGetHitAndMiss(t *testing.T) {
	cb, cl := newCombineRig(t, 2, 2)
	if err := cb.View().Set("k", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	cl[0].PostGet("k")
	cl[1].PostGet("absent")
	if served := cb.ServeSweep(); served != 2 {
		t.Fatalf("ServeSweep served %d, want 2", served)
	}
	val, ok, done, err := cl[0].TryGet()
	if err != nil || !done || !ok || !bytes.Equal(val, []byte("v1")) {
		t.Fatalf("combined GET hit = (%q, %v, %v, %v)", val, ok, done, err)
	}
	if _, ok, done, err := cl[1].TryGet(); err != nil || !done || ok {
		t.Fatalf("combined GET miss = (ok=%v, done=%v, err=%v), want clean miss", ok, done, err)
	}
}

// TestCombineIncrBatchOnePublish gathers increments from every client in
// one sweep and checks (a) each caller receives its exact intermediate
// value as if the increments ran back to back, (b) the arena holds the
// total, and (c) the whole batch cost ONE entry publish — the allocator's
// count is the witness that combining actually combined.
func TestCombineIncrBatchOnePublish(t *testing.T) {
	const slots = 6
	cb, cl := newCombineRig(t, 3, slots)
	if _, err := cb.View().IncrBy("ctr", 100); err != nil {
		t.Fatal(err)
	}
	allocsBefore, _ := cb.View().AllocStats()
	for i, c := range cl {
		c.PostIncrBy("ctr", int64(i+1))
	}
	if served := cb.ServeSweep(); served != slots {
		t.Fatalf("ServeSweep served %d, want %d", served, slots)
	}
	run := int64(100)
	for i, c := range cl {
		run += int64(i + 1)
		val, done, err := c.TryIncr()
		if err != nil || !done || val != run {
			t.Fatalf("client %d: combined INCRBY = (%d, %v, %v), want %d", i, val, done, err, run)
		}
	}
	allocsAfter, _ := cb.View().AllocStats()
	if got := allocsAfter - allocsBefore; got != 1 {
		t.Fatalf("combined increment batch allocated %d entry blocks, want 1", got)
	}
	if v, err := cb.View().IncrBy("ctr", 0); err != nil || v != run {
		t.Fatalf("arena total = %d (err %v), want %d", v, err, run)
	}
}

func TestCombineIncrErrorPropagates(t *testing.T) {
	cb, cl := newCombineRig(t, 2, 1)
	if err := cb.View().Set("notanum", []byte("xyz"), 0); err != nil {
		t.Fatal(err)
	}
	cl[0].PostIncrBy("notanum", 1)
	cb.ServeSweep()
	if _, done, err := cl[0].TryIncr(); !done || err == nil {
		t.Fatalf("INCRBY on non-integer: done=%v err=%v, want done with error", done, err)
	}
}

func TestCombineOversizeValueRejected(t *testing.T) {
	cb, cl := newCombineRig(t, 2, 1)
	big := make([]byte, CombineValueMax+1)
	if err := cb.View().Set("big", big, 0); err != nil {
		t.Fatal(err)
	}
	cl[0].PostGet("big")
	cb.ServeSweep()
	if _, _, done, err := cl[0].TryGet(); !done || err == nil {
		t.Fatalf("oversize combined GET: done=%v err=%v, want done with error", done, err)
	}
}

func TestHotTrackerClassifies(t *testing.T) {
	ht := NewHotTracker(0.5, 4)
	for i := 0; i < 4; i++ {
		if ht.Hot("k") {
			t.Fatalf("hot after %d touches, threshold 4", i)
		}
		ht.Touch("k")
	}
	if !ht.Hot("k") {
		t.Fatal("not hot at threshold")
	}
	ht.Touch("cold")
	if ht.Hot("cold") {
		t.Fatal("one touch classified hot")
	}
	for i := 0; i < 8; i++ {
		ht.Decay()
	}
	if ht.Hot("k") {
		t.Fatal("still hot after 8 decays at factor 0.5")
	}
}

// TestHotTrackerDecayDropsCold pins the decay arithmetic: a touch adds
// one, Decay multiplies by the factor, and a key whose heat falls below
// 0.5 is forgotten.
func TestHotTrackerDecayDropsCold(t *testing.T) {
	ht := NewHotTracker(0.5, 4)
	for i := 0; i < 10; i++ {
		ht.Touch("a")
	}
	if h := ht.heat[keyHash("a")]; h != 10 {
		t.Fatalf("heat after 10 touches = %v, want 10", h)
	}
	for i := 0; i < 4; i++ {
		ht.Decay()
	}
	if h := ht.heat[keyHash("a")]; h != 0.625 {
		t.Fatalf("heat after 4 decays = %v, want 0.625", h)
	}
	ht.Decay() // 0.3125 < 0.5
	if len(ht.heat) != 0 {
		t.Fatalf("cold key kept: %v", ht.heat)
	}
}

func TestHotTrackerBadParamsPanic(t *testing.T) {
	for _, p := range [][2]float64{{0, 4}, {1.5, 4}, {0.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHotTracker(%v, %v) did not panic", p[0], p[1])
				}
			}()
			NewHotTracker(p[0], p[1])
		}()
	}
}

func TestCombineOwnerStable(t *testing.T) {
	for n := 1; n <= 16; n *= 2 {
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("k%d", i)
			o := CombineOwner(key, n)
			if o < 0 || o >= n {
				t.Fatalf("CombineOwner(%q, %d) = %d out of range", key, n, o)
			}
			if o != CombineOwner(key, n) {
				t.Fatalf("CombineOwner(%q, %d) unstable", key, n)
			}
		}
	}
}

// TestCombineSweepGroupsMixedOps posts a mix of GETs and INCRBYs on two
// keys in one sweep and checks every reply lands on the right slot with
// the right shape (the interleaved-reply framing the experiment relies
// on).
func TestCombineSweepGroupsMixedOps(t *testing.T) {
	cb, cl := newCombineRig(t, 2, 4)
	if err := cb.View().Set("d", []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	cl[0].PostGet("d")
	cl[1].PostIncrBy("c", 5)
	cl[2].PostGet("d")
	cl[3].PostIncrBy("c", 7)
	if served := cb.ServeSweep(); served != 4 {
		t.Fatalf("served %d, want 4", served)
	}
	for _, i := range []int{0, 2} {
		val, ok, done, err := cl[i].TryGet()
		if err != nil || !done || !ok || string(val) != "payload" {
			t.Fatalf("slot %d GET = (%q, %v, %v, %v)", i, val, ok, done, err)
		}
	}
	v1, done1, err1 := cl[1].TryIncr()
	v3, done3, err3 := cl[3].TryIncr()
	if err1 != nil || err3 != nil || !done1 || !done3 {
		t.Fatalf("INCRBY replies: (%d,%v,%v) (%d,%v,%v)", v1, done1, err1, v3, done3, err3)
	}
	if v1 != 5 || v3 != 12 {
		t.Fatalf("cumulative INCRBY results = %d, %d; want 5, 12", v1, v3)
	}
}
