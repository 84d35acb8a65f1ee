package redis

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flacos/internal/fabric"
)

// Zombie fencing, deterministically: a view attached before its node
// was declared Dead must have every write rejected once FenceNode runs,
// while a view attached under the post-rejoin generation serves
// normally. This is the redis half of the membership generation fence
// (sched's half is TestReclaimNodeFencesZombieCompletion).
func TestFenceNodeRejectsZombieWrites(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	s := NewRackStore(f, RackStoreConfig{})
	n0, n1 := f.Node(0), f.Node(1)

	// Node 1 serves under membership generation 1.
	zombie := s.AttachGen(n1, 1)
	if err := zombie.Set("k", []byte("before"), 0); err != nil {
		t.Fatalf("pre-fence set: %v", err)
	}

	// The rack declares node 1 dead at generation 1; recovery fences it
	// from a live node.
	if got := s.FenceNode(n0, 1, 1); got != 1 {
		t.Fatalf("FenceNode fenced %d views, want 1", got)
	}
	// Idempotent per (node, generation).
	if got := s.FenceNode(n0, 1, 1); got != 0 {
		t.Fatalf("repeat FenceNode fenced %d views, want 0", got)
	}

	// Every write through the zombie's view now bounces.
	if err := zombie.Set("k", []byte("after"), 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Set: %v, want ErrFenced", err)
	}
	if _, err := zombie.Incr("ctr"); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Incr: %v, want ErrFenced", err)
	}
	if got := zombie.Del("k"); got != 0 {
		t.Fatalf("zombie Del deleted %d keys, want 0", got)
	}

	// The committed state is untouched and visible elsewhere.
	reader := s.AttachGen(n0, 1)
	if v, ok := reader.Get("k"); !ok || string(v) != "before" {
		t.Fatalf("Get(k) = %q, %v; want \"before\", true", v, ok)
	}

	// Node 1 rejoins at generation 2: its fresh view serves.
	rejoined := s.AttachGen(n1, 2)
	if err := rejoined.Set("k", []byte("rejoined"), 0); err != nil {
		t.Fatalf("post-rejoin set: %v", err)
	}
	if v, ok := reader.Get("k"); !ok || string(v) != "rejoined" {
		t.Fatalf("Get(k) = %q, %v; want \"rejoined\", true", v, ok)
	}
	// And the OLD generation stays fenced forever.
	if err := zombie.Set("k", []byte("necro"), 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Set after rejoin: %v, want ErrFenced", err)
	}
}

// Attach (without an explicit generation) adopts the node's current
// fence level, so plain reattach-after-crash keeps working for callers
// that never heard of membership.
func TestAttachAdoptsFenceLevel(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	s := NewRackStore(f, RackStoreConfig{})
	n0, n1 := f.Node(0), f.Node(1)

	old := s.Attach(n1) // generation 0
	s.FenceNode(n0, 1, 0)
	if err := old.Set("k", []byte("x"), 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("old view Set: %v, want ErrFenced", err)
	}
	fresh := s.Attach(n1) // adopts fence level 1
	if err := fresh.Set("k", []byte("x"), 0); err != nil {
		t.Fatalf("fresh view Set: %v", err)
	}
	if fresh.gen == old.gen {
		t.Fatal("fresh view did not adopt the raised fence level")
	}
}

// A fence for an older generation must not reject a view already
// serving under a newer one (the FenceNode(gen) monotonicity contract).
func TestLateFenceForOldGenerationIsHarmless(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	s := NewRackStore(f, RackStoreConfig{})
	n0, n1 := f.Node(0), f.Node(1)

	v2 := s.AttachGen(n1, 2)
	// A slow observer only now reports the generation-1 death.
	s.FenceNode(n0, 1, 1)
	if err := v2.Set("k", []byte("x"), 0); err != nil {
		t.Fatalf("gen-2 view fenced by a gen-1 fence: %v", err)
	}
}

// TestFenceOutsideSectionCostsNothing: a view fenced between two
// operations finds out from the swap that opens its next section. A write
// that is accepted pays no atomic for the check (three, as the budget test
// pins them: enter, publish, exit) and one that is rejected pays only its
// section's two; it publishes nothing and frees the block it had built.
func TestFenceOutsideSectionCostsNothing(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	n0, n1 := f.Node(0), f.Node(1)
	zombie, reader := s.AttachGen(n1, 1), s.AttachGen(n0, 1)
	for i := 0; i < 2; i++ {
		if err := zombie.Set("k", []byte("committed"), 0); err != nil {
			t.Fatal(err)
		}
	}
	zombie.Barrier() // frees a block: the allocator's one-time slab class lookup is behind us
	before := n1.Stats()
	if err := zombie.Set("k", []byte("committed"), 0); err != nil {
		t.Fatal(err)
	}
	if d := n1.Stats().Delta(before); d.Atomics != 3 {
		t.Fatalf("an unfenced SET made %d atomics, want 3: none of them is a fence check", d.Atomics)
	}
	s.FenceNode(n0, 1, 1)

	rejected := []struct {
		name string
		op   func() bool
	}{
		{"SET", func() bool { return errors.Is(zombie.Set("k", []byte("necro"), 0), ErrFenced) }},
		{"INCRBY", func() bool { _, err := zombie.IncrBy("ctr", 1); return errors.Is(err, ErrFenced) }},
		{"DEL", func() bool { return zombie.Del("k") == 0 }},
		{"EXPIRE", func() bool { return !zombie.Expire("k", time.Second) }},
	}
	for _, r := range rejected {
		allocs, frees := zombie.AllocStats()
		before := n1.Stats()
		ok := r.op()
		d := n1.Stats().Delta(before)
		if !ok {
			t.Fatalf("zombie %s was not rejected", r.name)
		}
		if d.Atomics != 2 {
			t.Fatalf("rejected %s made %d atomics, want 2 (enter and exit, no fence-word load)", r.name, d.Atomics)
		}
		if a, fr := zombie.AllocStats(); a-allocs != fr-frees {
			t.Fatalf("rejected %s allocated %d blocks and freed %d", r.name, a-allocs, fr-frees)
		}
	}
	if v, ok := reader.Get("k"); !ok || string(v) != "committed" {
		t.Fatalf("Get(k) = %q, %v after the rejected writes", v, ok)
	}
	if reader.Exists("ctr") != 0 {
		t.Fatal("a rejected INCRBY bound its key")
	}
}

// TestFenceInsideSection: the fence lands while the zombie's SET is inside
// its section (the script runs on the SET's fetch of the index line, after
// enter). That write may still publish — as a write already past a
// fence-word check could — its Exit latches the fence, and the next write
// is rejected.
func TestFenceInsideSection(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	n0, n1 := f.Node(0), f.Node(1)
	zombie, reader := s.AttachGen(n1, 1), s.AttachGen(n0, 1)
	if err := zombie.Set("k", []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	fired := false
	n1.SetOpHook(func(k fabric.OpKind, _, _ uint64) {
		if k == fabric.OpReadFresh && !fired {
			fired = true
			if got := s.FenceNode(n0, 1, 1); got != 1 {
				t.Errorf("FenceNode fenced %d views, want 1", got)
			}
		}
	})
	err := zombie.Set("k", []byte("in flight"), 0)
	n1.SetOpHook(nil)
	if !fired || err != nil {
		t.Fatalf("the SET the fence overtook: fired=%v err=%v; it was inside its section and may land", fired, err)
	}
	if v, ok := reader.Get("k"); !ok || string(v) != "in flight" {
		t.Fatalf("Get(k) = %q, %v", v, ok)
	}
	if err := zombie.Set("k", []byte("after"), 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("the next SET: %v, want ErrFenced", err)
	}
	if v, _ := reader.Get("k"); string(v) != "in flight" {
		t.Fatalf("Get(k) = %q after the rejected SET", v)
	}
}

// TestFencedViewStillReadsSafely: reads are not fenced. A fenced view's GET
// returns the committed value, and its section is a real one: a block it
// is reading (the script replaces the key while the GET is between its
// index fetch and its entry fetch) is not reclaimed until it has left.
func TestFencedViewStillReadsSafely(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	n0, n1 := f.Node(0), f.Node(1)
	zombie, writer := s.AttachGen(n1, 1), s.AttachGen(n0, 1)
	val := []byte("committed-value-long-enough-to-notice")
	if err := writer.Set("k", val, 0); err != nil {
		t.Fatal(err)
	}
	s.FenceNode(n0, 1, 1)
	if err := zombie.Set("k", []byte("necro"), 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie Set: %v, want ErrFenced", err)
	}

	fired := false
	n1.SetOpHook(func(k fabric.OpKind, _, _ uint64) {
		if k != fabric.OpReadFresh || fired {
			return
		}
		fired = true
		if err := writer.Set("k", []byte("replaced"), 0); err != nil {
			t.Error(err)
		}
		_, frees := writer.AllocStats()
		for i := 0; i < 4; i++ {
			writer.p.TryAdvance()
			writer.p.Collect()
		}
		if _, after := writer.AllocStats(); after != frees {
			t.Errorf("the block the fenced view is reading was freed under it (%d frees)", after-frees)
		}
	})
	got, ok := zombie.Get("k")
	n1.SetOpHook(nil)
	if !fired || !ok || string(got) != string(val) {
		t.Fatalf("fenced view's GET = %q, %v (script ran %v); want the value committed when it looked", got, ok, fired)
	}
	_, frees := writer.AllocStats()
	writer.Barrier()
	if _, after := writer.AllocStats(); after != frees+1 {
		t.Fatalf("%d blocks freed once the fenced view left its section, want 1", after-frees)
	}
	if got, ok := zombie.Get("k"); !ok || string(got) != "replaced" {
		t.Fatalf("fenced view's next GET = %q, %v", got, ok)
	}
}

// TestAttachOrdersAgainstFenceNode: whichever of Attach and FenceNode takes
// the store's lock first, a view at a fenced generation never comes out
// able to write. Both orders in sequence, then the two racing for real: in
// every interleaving the view is either swept by FenceNode or sees the
// raised fence word and is fenced at birth.
func TestAttachOrdersAgainstFenceNode(t *testing.T) {
	const rounds = 60
	f, s := newTestRackStore(t, 2, RackStoreConfig{MaxViews: 2*rounds + 8})
	n0, n1 := f.Node(0), f.Node(1)
	fencedSet := func(v *View) bool { return errors.Is(v.Set("k", []byte("x"), 0), ErrFenced) }

	// Attach first: the sweep finds the view.
	v := s.AttachGen(n1, 1)
	if got := s.FenceNode(n0, 1, 1); got != 1 || !fencedSet(v) {
		t.Fatalf("attach then fence: swept %d views, write rejected %v", got, fencedSet(v))
	}
	// FenceNode first: the view sees the raised word, is fenced at birth,
	// and is not one a later sweep counts.
	v = s.AttachGen(n1, 1)
	if !fencedSet(v) {
		t.Fatal("fence then attach at the fenced generation: the view can write")
	}
	if got := s.FenceNode(n0, 1, 1); got != 0 {
		t.Fatalf("a view fenced at birth was swept again (%d)", got)
	}
	// The generation above the fence is not fenced, attached before or after.
	if v := s.AttachGen(n1, 2); fencedSet(v) {
		t.Fatal("a view at the generation above the fence was fenced")
	}
	if v := s.Attach(n1); fencedSet(v) || v.gen != 2 {
		t.Fatalf("plain Attach after the fence: generation %d, fenced %v; want the fence level 2, serving", v.gen, fencedSet(v))
	}

	for gen := uint64(10); gen < 10+rounds; gen++ {
		var wg sync.WaitGroup
		var v *View
		start := make(chan struct{})
		wg.Add(2)
		go func() { defer wg.Done(); <-start; v = s.AttachGen(n1, gen) }()
		go func() { defer wg.Done(); <-start; s.FenceNode(n0, 1, gen) }()
		close(start)
		wg.Wait()
		if !fencedSet(v) {
			t.Fatalf("generation %d: Attach racing FenceNode produced a view that can write", gen)
		}
	}
}
