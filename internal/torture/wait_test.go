package torture

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/redis"
)

// TestRingProducerWaitMatchesItsLoop: the ds workload's producer on node 0
// finds its ring full and waits for node 1's consumer, which pops at the
// producer's k-th failed poll. The producer charges node 0 exactly what
// the loop it replaced charged under the same script.
func TestRingProducerWaitMatchesItsLoop(t *testing.T) {
	build := func() (*Env, *dsWorkload) {
		f := fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
		env := &Env{Fab: f, Cfg: Config{Seed: 1, OpsPerClient: 9}, inflight: make([]atomic.Int64, 2)}
		w := newDSWorkload()
		w.Prepare(env)
		return env, w
	}
	buf := make([]byte, ringMsgBytes)
	for _, k := range []int{1, 3, 8} {
		env, w := build()
		n := env.Fab.Node(0)
		polls := 0
		n.SetOpHook(func(kind fabric.OpKind, _, _ uint64) {
			if kind == fabric.OpAwait {
				if polls++; polls == k {
					w.rings[0].TryPop(env.Fab.Node(1), buf)
				}
			}
		})
		before := n.Stats()
		w.ringProducer(env, 0)
		n.SetOpHook(nil)
		got := n.Stats().Delta(before)
		if polls != k || env.Ops() != 9 {
			t.Fatalf("producer completed %d ops after %d failed polls, want 9 after the scripted %d", env.Ops(), polls, k)
		}

		renv, rw := build()
		rn, r := renv.Fab.Node(0), rw.rings[0]
		before = rn.Stats()
		for seq := uint64(1); seq <= 9; seq++ {
			PutPayload(buf, rw.msgs.ID(0), seq)
			for i := 1; ; i++ {
				pushed := false
				if !renv.RunOp(rn, func() { pushed = r.TryPush(rn, buf) }) {
					t.Fatal("the reference producer's node crashed")
				}
				if pushed {
					break
				}
				if i == k {
					r.TryPop(renv.Fab.Node(1), buf)
				}
			}
		}
		if want := rn.Stats().Delta(before); got != want || got.VirtualNS == 0 {
			t.Fatalf("after %d failed polls the producer charged\n  %+v\nthe loop it replaced\n  %+v", k, got, want)
		}
	}
}

// stuckWorkload has one client that completes an op and then waits on a
// word nobody writes, beside one that finishes its ops. With control set
// it also stands up a ControlRack, whose scheduler and control plane run
// goroutines of their own.
type stuckWorkload struct {
	control bool
	g       fabric.GPtr
	rack    *ControlRack
	checked atomic.Bool
	stopped atomic.Bool
}

func (w *stuckWorkload) Name() string          { return "stuck" }
func (w *stuckWorkload) Tolerates() FaultClass { return 0 }
func (w *stuckWorkload) Check(env *Env)        { w.checked.Store(true) }

func (w *stuckWorkload) Prepare(env *Env) {
	w.g = env.Fab.Reserve(fabric.LineSize, fabric.LineSize)
	if w.control {
		w.rack = NewControlRack(env.Fab, ControlConfig{
			Store: redis.RackStoreConfig{Slots: 16, MaxViews: 16, ArenaBytes: 1 << 20},
			Tasks: 16, Body: linger, PhiDead: 6, DeadStrikes: 2, Health: true,
		})
	}
}

func (w *stuckWorkload) Stop() {
	w.stopped.Store(true)
	if w.rack != nil {
		w.rack.Stop()
	}
}

func (w *stuckWorkload) Clients(env *Env) []func() {
	return []func(){
		func() {
			env.OpDone()
			n := env.Fab.Node(1)
			n.Await(fabric.Wait{Site: "torture.stuckClient", Word: w.g, Arg: 7}, func() (uint64, bool) {
				v := n.AtomicLoad64(w.g)
				return v, v != 0
			})
		},
		func() {
			for i := 0; i < env.Cfg.OpsPerClient; i++ {
				env.OpDone()
			}
		},
	}
}

// TestWatchdogNamesAStuckClient: a sweep whose client waits forever fails
// within the watchdog bound instead of hanging. Its report names the open
// wait (site, word, node) and carries the waiter's flacos frames, and no
// goroutine of the sweep outlives it, the control rack's among them.
func TestWatchdogNamesAStuckClient(t *testing.T) {
	defer func(d time.Duration) { watchdogTimeout = d }(watchdogTimeout)
	watchdogTimeout = 200 * time.Millisecond
	for _, control := range []bool{false, true} {
		before := runtime.NumGoroutine()
		w := &stuckWorkload{control: control}
		start := time.Now()
		rep := Run(w, Config{Seed: 1, OpsPerClient: 5})
		if elapsed := time.Since(start); elapsed > 2*watchdogTimeout+time.Second {
			t.Errorf("the stuck sweep took %v, want about the %v watchdog bound", elapsed, watchdogTimeout)
		}
		if rep.Passed() || rep.Caught() || w.checked.Load() || !w.stopped.Load() {
			t.Fatalf("a stuck sweep passed=%v, caught=%v, checked=%v, stopped=%v; want a failure, stopped without Check:\n%s",
				rep.Passed(), rep.Caught(), w.checked.Load(), w.stopped.Load(), rep)
		}
		if len(rep.Waits) != 1 || rep.Waits[0].Site != "torture.stuckClient" || rep.Waits[0].Word != w.g || rep.Waits[0].Node != 1 || rep.Waits[0].Arg != 7 {
			t.Fatalf("open waits %v, want the stuck client's one record", rep.Waits)
		}
		out := rep.String()
		for _, want := range []string{"watchdog: no client completed an op", "open wait: node 1 torture.stuckClient", "flacos/internal/fabric.(*Node).await", "flacos/internal/torture.(*stuckWorkload).Clients"} {
			if !strings.Contains(out, want) {
				t.Errorf("report lacks %q:\n%s", want, out)
			}
		}
		if strings.Contains(rep.Stacks, "runtime.") {
			t.Errorf("stacks keep frames outside flacos:\n%s", rep.Stacks)
		}
		// Run returns only once the sweep's goroutines have ended; the
		// grace covers their last deferred calls.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("control=%v: %d goroutines outlive the halted sweep (%d before)", control, runtime.NumGoroutine()-before, before)
			}
		}
	}
}

// TestStuckSweepUnderABreakCatchesNothing: with a planted break enabled, a
// sweep the watchdog stops fails, but it does not count as the checkers
// catching the break.
func TestStuckSweepUnderABreakCatchesNothing(t *testing.T) {
	defer func(d time.Duration) { watchdogTimeout = d }(watchdogTimeout)
	watchdogTimeout = 200 * time.Millisecond
	rep := Run(&stuckWorkload{}, Config{Seed: 1, OpsPerClient: 5, Break: Breaks()[0]})
	if rep.Stuck == "" || rep.Passed() || rep.Caught() {
		t.Fatalf("stuck=%q passed=%v caught=%v; want a stuck failure that caught nothing:\n%s", rep.Stuck, rep.Passed(), rep.Caught(), rep)
	}
}

// TestKitWaitRunsOut: a kit wait on a condition that never holds, and a
// kit task wait on a task no node may claim, each fail within the wait
// bound instead of hanging. The error names the wait's site and lists the
// open waits, the scheduler is stopped, and once the rack stops no
// goroutine of it is left.
func TestKitWaitRunsOut(t *testing.T) {
	defer func(d time.Duration) { waitBound = d }(waitBound)
	waitBound = 200 * time.Millisecond
	for name, tc := range map[string]struct {
		wait  func(r *ControlRack) error
		wants []string
	}{
		"await": {
			wait: func(r *ControlRack) error {
				return r.Await("torture.neverHolds", 50*time.Microsecond, func() bool { return false })
			},
			wants: []string{"torture.neverHolds: still waiting after 200ms", "node 0 torture.neverHolds"},
		},
		"tasks": {
			wait: func(r *ControlRack) error {
				r.Sched.SetNodeServing(0, false)
				r.Sched.SetNodeServing(1, false)
				return r.WaitTasks(r.Tasks.Submit(r.Fab.Node(0), 0, 1))
			},
			wants: []string{"torture.ControlRack.WaitTasks: still waiting after 200ms", "node 0 sched.Wait"},
		},
	} {
		before := runtime.NumGoroutine()
		rack := NewControlRack(fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 2}), ControlConfig{
			Store: redis.RackStoreConfig{Slots: 16, MaxViews: 16, ArenaBytes: 1 << 20},
			Tasks: 16, Body: linger, PhiDead: 6, DeadStrikes: 2,
		})
		start := time.Now()
		err := tc.wait(rack)
		if elapsed := time.Since(start); elapsed < waitBound || elapsed > waitBound+time.Second {
			t.Errorf("%s: the wait ran out after %v, want about the %v bound", name, elapsed, waitBound)
		}
		if err == nil {
			t.Fatalf("%s: a wait that never ends returned no error", name)
		}
		for _, want := range tc.wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error lacks %q:\n%v", name, want, err)
			}
		}
		if rack.Sched.Wait(rack.Fab.Node(0), rack.Tasks.Submit(rack.Fab.Node(0), 0, 0)) {
			t.Errorf("%s: the scheduler still runs tasks after the wait ran out", name)
		}
		rack.Stop()
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines outlive the stopped rack (%d before)", name, runtime.NumGoroutine()-before, before)
			}
		}
	}
}
