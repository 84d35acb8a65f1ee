package torture

import (
	"strings"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/redis"
	"flacos/internal/sched"
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
// a value whose bytes do not match its sequence, a value behind the
// committed floor, and a vanished key must each be flagged; an intact
// current value must not.
func TestStoreStreamFlagsTornAndBackwards(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	env := &Env{Fab: f, Cfg: Config{Seed: 1, Nodes: 2}}
	s := newStoreStream(env, redis.NewRackStore(f, redis.RackStoreConfig{ArenaBytes: 4 << 20}), 2)
	v := s.attach(env, f.Node(1))
	observe := func(keyIdx int, floor uint64) string {
		val, ok := v.Get(s.key(keyIdx))
		s.observe(env, 7, keyIdx, floor, val, ok)
		var out []string
		for _, viol := range env.takeViolations() {
			out = append(out, viol.Detail)
		}
		return strings.Join(out, "\n")
	}
	if got := observe(0, 1); got != "" {
		t.Errorf("intact seeded value flagged: %s", got)
	}
	torn := redisVal(1, 5)
	torn[redisValBytes-1] ^= 0xff
	if err := v.Set(s.key(1), torn, 0); err != nil {
		t.Fatal(err)
	}
	if got := observe(1, 1); !strings.Contains(got, "torn value") {
		t.Errorf("torn value not flagged; got %q", got)
	}
	if err := v.Set(s.key(2), redisVal(2, 3), 0); err != nil {
		t.Fatal(err)
	}
	if got := observe(2, 5); !strings.Contains(got, "went backwards") {
		t.Errorf("read behind the committed floor not flagged; got %q", got)
	}
	v.Del(s.key(3))
	if got := observe(3, 1); !strings.Contains(got, "vanished") {
		t.Errorf("vanished key not flagged; got %q", got)
	}
}
