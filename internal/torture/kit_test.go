package torture

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/redis"
	"flacos/internal/sched"
	"flacos/internal/trace"
)

// TestRunOpAbsorbsCrashAcrossRestart: the crash panic is matched on its
// value, so a restart that lands between the panic and the absorb (here:
// a deferred Restart unwinding before RunOp's recover runs) must not
// turn the crash into a re-raised "operation on crashed node" panic.
func TestRunOpAbsorbsCrashAcrossRestart(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2})
	n := f.Node(1)
	g := f.Reserve(8, 8)
	completed := RunOp(n, func() {
		defer n.Restart()
		n.Crash()
		n.Load64(g)
	})
	if completed {
		t.Error("an op that died with its node reported completion")
	}
	if n.Crashed() {
		t.Fatal("the restart did not land before the absorb; the test tested nothing")
	}
}

// TestRestartWaitsForInFlightOps: a restart never lands inside a client op
// that was running when its node crashed. The op below has stored into its
// node's cache and is paused before its write-back when the node crashes,
// losing the store. Restarted under it, the op would wake to a live node,
// write back nothing and report success — a ring producer publishing a
// slot its payload never reached. It must die with its node instead.
func TestRestartWaitsForInFlightOps(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2})
	env := &Env{Fab: f, Cfg: Config{Seed: 1}, inflight: make([]atomic.Int64, 2)}
	n := f.Node(1)
	g := f.Reserve(fabric.LineSize, fabric.LineSize)
	stored, resume, completed := make(chan struct{}), make(chan struct{}), make(chan bool)
	go func() {
		completed <- env.RunOp(n, func() {
			n.Store64(g, 42)
			close(stored)
			<-resume
			n.WriteBackRange(g, 8)
		})
	}()
	<-stored
	n.Crash()
	restarted := make(chan struct{})
	go func() {
		env.restart(1)
		close(restarted)
	}()
	select {
	case <-restarted:
		t.Error("the restart landed inside an op that began before the crash")
	case <-time.After(20 * time.Millisecond): // the restart is waiting for the op
	}
	close(resume)
	if <-completed {
		t.Error("the op reported completion though its node crashed under it")
	}
	<-restarted
	if n.Crashed() {
		t.Fatal("the node was not restarted")
	}
}

// TestRunOpPropagatesBugs: only node n's own crash is a fault; any other
// panic — including some other node's crash — is a bug and must escape.
func TestRunOpPropagatesBugs(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2})
	for name, fn := range map[string]func(){
		"plain panic":        func() { panic("bug") },
		"other node's crash": func() { f.Node(1).Crash(); f.Node(1).Load64(f.Reserve(8, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s was absorbed", name)
				}
			}()
			RunOp(f.Node(0), fn)
		}()
	}
}

// TestLedgerFlagsDoubleAndLostCompletion is the exactly-once checker's
// self-test: a DoneCell incremented twice and one left at 0 must both be
// flagged, and an untampered history must audit clean.
func TestLedgerFlagsDoubleAndLostCompletion(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: 2})
	s := sched.New(f, sched.Config{TableCap: 16})
	defer s.Stop()
	l := NewLedger(f, s, 4, func(*fabric.Node, uint64) {})
	s.Start()
	n0 := f.Node(0)
	for i := 0; i < 4; i++ {
		s.Wait(n0, l.Submit(n0, 0, i%2))
	}
	if a := l.Audit(n0); !a.OK() || a.Once != 4 {
		t.Fatalf("clean history failed its audit: %s %v", a, a.Violations)
	}
	n0.Add64(l.done.Add(1*8), 1)         // task 1 completed twice
	n0.AtomicStore64(l.done.Add(2*8), 0) // task 2's completion lost
	a := l.Audit(n0)
	got := strings.Join(a.Violations, "\n")
	for _, want := range []string{"task 1: DoneCell=2, want exactly 1", "task 2: DoneCell=0, want exactly 1"} {
		if !strings.Contains(got, want) {
			t.Errorf("audit missed %q; got:\n%s", want, got)
		}
	}
	if a.OK() || a.Once != 2 {
		t.Errorf("tampered history audited as %s, ok=%v", a, a.OK())
	}
}

// TestStoreStreamFlagsTornAndBackwards is the store checker's self-test:
// a value whose bytes do not match its version, a value behind the
// committed floor, a vanished key, another key's value and a zeroed value
// must each be flagged; an intact current value must not.
func TestStoreStreamFlagsTornAndBackwards(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	env := &Env{Fab: f, Cfg: Config{Seed: 1}}
	s := newStoreStream(env, redis.NewRackStore(f, redis.RackStoreConfig{ArenaBytes: 4 << 20}), 3)
	v := s.attach(env, f.Node(1))
	observe := func(k int, floor uint64) string {
		val, _ := v.Get(s.key(k))
		s.regs.check(env, 7, k, Bounds{Floor: floor}, Decode(val))
		var out []string
		for _, viol := range env.takeViolations() {
			out = append(out, viol.Detail)
		}
		return strings.Join(out, "\n")
	}
	if got := observe(0, 1); got != "" {
		t.Errorf("intact seeded value flagged: %s", got)
	}
	torn := Payload(s.regs.ID(1), 5, redisValBytes)
	torn[redisValBytes-1] ^= 0xff
	if err := v.Set(s.key(1), torn, 0); err != nil {
		t.Fatal(err)
	}
	if got := observe(1, 1); !strings.Contains(got, "torn") {
		t.Errorf("torn value not flagged; got %q", got)
	}
	if err := v.Set(s.key(2), Payload(s.regs.ID(2), 3, redisValBytes), 0); err != nil {
		t.Fatal(err)
	}
	if got := observe(2, 5); !strings.Contains(got, "behind the committed floor") {
		t.Errorf("read behind the committed floor not flagged; got %q", got)
	}
	v.Del(s.key(3))
	if got := observe(3, 1); !strings.Contains(got, "absent") {
		t.Errorf("vanished key not flagged; got %q", got)
	}
	if err := v.Set(s.key(4), Payload(s.regs.ID(5), 2, redisValBytes), 0); err != nil {
		t.Fatal(err)
	}
	if got := observe(4, 1); !strings.Contains(got, "wrong identity") {
		t.Errorf("another key's value not flagged; got %q", got)
	}
	// A publish that overtook its value's write into fresh, zeroed memory.
	if err := v.Set(s.key(5), make([]byte, redisValBytes), 0); err != nil {
		t.Fatal(err)
	}
	if got := observe(5, 1); !strings.Contains(got, "torn") {
		t.Errorf("zeroed value not flagged; got %q", got)
	}
}

// TestStoreStreamResyncsKeyLeftUnsynced scripts the final-state case a
// crash makes: a writer's last SET to key j is cut by a crash after its
// publish landed, and the writer never picks j again. The writer must
// resync j before it ends, so j's committed sequence is the published one
// and check sees it as expected and reports nothing.
func TestStoreStreamResyncsKeyLeftUnsynced(t *testing.T) {
	const node, ci, kpw, ops = 1, 0, 2, 24
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	env := &Env{
		Fab:      f,
		Cfg:      Config{Seed: 3, OpsPerClient: ops},
		Trace:    trace.New(f, trace.Config{RingCap: 256}),
		inflight: make([]atomic.Int64, 2),
	}
	s := newStoreStream(env, redis.NewRackStore(f, redis.RackStoreConfig{ArenaBytes: 4 << 20}), kpw)

	// Replay the writer's key choices. One SET is cut, so the writer runs
	// ops+1 iterations. Cut the last SET to the key the final iteration
	// does not pick: every iteration after the cut picks the other key.
	rng := env.Rand(ci)
	picks := make([]int, ops+1)
	for i := range picks {
		picks[i] = rng.Intn(kpw)
	}
	j := 1 - picks[ops]
	cut := -1
	for i, p := range picks[:ops] {
		if p == j {
			cut = i
		}
	}
	if cut < 0 {
		t.Fatalf("key %d is never picked in %v; pick another seed", j, picks)
	}
	want := uint64(1) // the seeded sequence, then one per SET up to the cut one
	for _, p := range picks[:cut+1] {
		if p == j {
			want++
		}
	}
	keyIdx := node*kpw + j

	// Crash node 1 at its first fabric event after the cut SET's publish
	// landed (its trace end span). The hook's own fabric op on the dead
	// node makes the crash take effect there, inside the SET, rather than
	// at the node's next operation.
	v0 := s.attach(env, f.Node(0))
	var crashed atomic.Bool
	n := f.Node(node)
	n.SetOpHook(func(fabric.OpKind, uint64, uint64) {
		if crashed.Load() {
			return
		}
		if val, ok := v0.Get(s.key(keyIdx)); ok {
			if Decode(val).Ver == want {
				crashed.Store(true)
				n.SetOpHook(nil)
				n.Crash()
				n.Fence()
			}
		}
	})
	restarted := make(chan struct{})
	go func() {
		defer close(restarted)
		for !crashed.Load() || !n.Crashed() {
			time.Sleep(20 * time.Microsecond)
		}
		env.restart(node)
	}()
	s.writer(env, node, ci)
	<-restarted

	if got := s.regs.Floor(keyIdx); got != want {
		t.Errorf("final sequence of key %s = %d, want the cut SET's %d", s.key(keyIdx), got, want)
	}
	s.check(env)
	for _, v := range env.takeViolations() {
		t.Errorf("violation: %s", v)
	}
}
