package membership

import (
	"sync"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

func testFabric(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: nodes})
}

// fastCfg returns detector timings quick enough for tests but with the
// production transition rules intact.
func fastCfg() Config {
	return Config{DeadStrikes: 2}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func joinAll(t *testing.T, tb *Table, f *fabric.Fabric, n int) []*Member {
	t.Helper()
	ms := make([]*Member, n)
	for i := 0; i < n; i++ {
		m, err := tb.Join(f.Node(i))
		if err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
		if err := m.Activate(); err != nil {
			t.Fatalf("activate node %d: %v", i, err)
		}
		ms[i] = m
	}
	return ms
}

func TestJoinActivatePopulatesTable(t *testing.T) {
	f := testFabric(3)
	tb := New(f, fastCfg())
	ms := joinAll(t, tb, f, 3)
	defer func() {
		for _, m := range ms {
			m.Stop()
		}
	}()
	for i, si := range tb.Snapshot(f.Node(0))[:3] {
		if si.State != StateAlive || si.Node != i || si.Generation != 1 {
			t.Errorf("slot %d: %+v, want alive node %d gen 1", i, si, i)
		}
		if !tb.Alive(i) {
			t.Errorf("Alive(%d) = false after Activate", i)
		}
	}
	// Unjoined nodes are not alive and unused slots stay free.
	if tb.Alive(99) {
		t.Error("out-of-range node reported alive")
	}
	for i, si := range tb.Snapshot(f.Node(0))[3:] {
		if si.State != StateFree {
			t.Errorf("slot %d: %s, want free", 3+i, si.State)
		}
	}
}

// TestSnapshotFabricBudget pins Snapshot to one atomic load per slot, the
// slot's control word, and nothing else. Node 2 joins nothing, so the
// agents of nodes 0 and 1 charge it nothing while it reads.
func TestSnapshotFabricBudget(t *testing.T) {
	lat := fabric.DefaultLatency()
	f := fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 3, Latency: lat})
	tb := New(f, fastCfg())
	ms := joinAll(t, tb, f, 2)
	defer func() {
		for _, m := range ms {
			m.Stop()
		}
	}()
	n := f.Node(2)
	before := n.Stats()
	snap := tb.Snapshot(n)
	slots := uint64(tb.Slots())
	want := fabric.NodeStatsSnapshot{Atomics: slots, VirtualNS: slots * uint64(lat.AtomicNS+n.Hops()*lat.HopNS)}
	if d := n.Stats().Delta(before); d != want {
		t.Fatalf("Snapshot of %d slots: %+v; want %+v", slots, d, want)
	}
	if len(snap) != tb.Slots() || snap[0].State != StateAlive || snap[1].Node != 1 || snap[2].State != StateFree {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestCrashIsDetectedAsDead(t *testing.T) {
	f := testFabric(3)
	tb := New(f, fastCfg())
	ms := joinAll(t, tb, f, 3)
	var mu sync.Mutex
	var deadEvents []Event
	ms[0].Subscribe(func(ev Event) {
		if ev.Kind == EvDead {
			mu.Lock()
			deadEvents = append(deadEvents, ev)
			mu.Unlock()
		}
	})
	for _, m := range ms {
		m.Start()
	}
	defer func() {
		for _, m := range ms {
			m.Stop()
		}
	}()

	f.Node(2).Crash()
	waitFor(t, "node 2 declared dead", func() bool {
		return tb.Snapshot(f.Node(0))[2].State == StateDead
	})
	waitFor(t, "dead event delivered on node 0", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(deadEvents) > 0
	})
	mu.Lock()
	ev := deadEvents[0]
	mu.Unlock()
	if ev.Node != 2 || ev.Slot != 2 || ev.Generation != 1 {
		t.Errorf("dead event %+v, want node 2 slot 2 gen 1", ev)
	}
	if tb.Alive(2) {
		t.Error("Alive(2) still true after Dead")
	}
	// Survivors stay alive: no collateral suspicion stuck anywhere.
	if !tb.Alive(0) || !tb.Alive(1) {
		t.Error("survivors lost liveness")
	}
	f.Node(2).Restart()
}

func TestRestartRejoinsSameSlotWithBumpedGeneration(t *testing.T) {
	f := testFabric(3)
	tb := New(f, fastCfg())
	ms := joinAll(t, tb, f, 3)
	for _, m := range ms {
		m.Start()
	}
	defer func() {
		for _, m := range ms {
			m.Stop()
		}
	}()

	f.Node(2).Crash()
	waitFor(t, "node 2 declared dead", func() bool {
		return tb.Snapshot(f.Node(0))[2].State == StateDead
	})
	ms[2].Stop()
	f.Node(2).Restart()

	m2, err := tb.Join(f.Node(2)) // must find its old slot
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if m2.Slot() != 2 {
		t.Fatalf("rejoined slot %d, want original slot 2", m2.Slot())
	}
	if m2.Generation() != 2 {
		t.Fatalf("rejoined generation %d, want 2", m2.Generation())
	}
	if err := m2.Activate(); err != nil {
		t.Fatalf("activate after rejoin: %v", err)
	}
	m2.Start()
	defer m2.Stop()
	waitFor(t, "node 2 alive again", func() bool { return tb.Alive(2) })
}

func TestHotPlugIntoFreeSlot(t *testing.T) {
	f := testFabric(4)
	tb := New(f, fastCfg())
	ms := joinAll(t, tb, f, 3) // node 3 not part of the boot population
	for _, m := range ms {
		m.Start()
	}
	defer func() {
		for _, m := range ms {
			m.Stop()
		}
	}()
	if tb.Alive(3) {
		t.Fatal("unjoined node reported alive")
	}

	m3, err := tb.Join(f.Node(3))
	if err != nil {
		t.Fatalf("hot-plug join: %v", err)
	}
	if m3.Slot() < 3 {
		t.Fatalf("hot-plug landed on occupied slot %d", m3.Slot())
	}
	if err := m3.Activate(); err != nil {
		t.Fatalf("activate: %v", err)
	}
	m3.Start()
	defer m3.Stop()
	waitFor(t, "boot members observe the hot-plugged node", func() bool {
		return tb.Alive(3) && tb.Snapshot(f.Node(0))[m3.Slot()].State == StateAlive
	})
}

func TestFalseSuspicionIsRefuted(t *testing.T) {
	f := testFabric(2)
	tb := New(f, fastCfg())
	ms := joinAll(t, tb, f, 2)
	// Only node 1 runs: a running observer that sees node 1 beat while
	// Suspect may lift the suspicion itself, without the incarnation
	// bump this test waits for.
	ms[1].Start()
	defer ms[1].Stop()

	// Falsely suspect node 1 by hand, as a detector with a stale view
	// would: node 1's agent must refute with a bumped incarnation.
	n0 := f.Node(0)
	w := tb.ctl.Load(n0, 1)
	if w.State() != StateAlive {
		t.Fatalf("precondition: slot 1 is %s", w.State())
	}
	if !tb.ctl.Transition(n0, 1, w, ds.PackState(w.Gen(), w.Aux(), 1, StateSuspect)) {
		t.Fatal("suspect CAS lost")
	}
	waitFor(t, "refutation", func() bool {
		w := tb.ctl.Load(n0, 1)
		return w.State() == StateAlive && w.Aux() >= 1 // Aux: the incarnation
	})
	if !tb.Alive(1) {
		t.Error("refuted node lost host-side liveness")
	}
}

func TestRestartBeatingDetectionStillDeliversDead(t *testing.T) {
	f := testFabric(3)
	cfg := fastCfg()
	// Make detection effectively impossible: the restart must win.
	cfg.PhiDead = 1e12
	tb := New(f, cfg)
	ms := joinAll(t, tb, f, 3)
	var mu sync.Mutex
	events := map[EventKind]int{}
	var deadGen, joinGen uint64
	ms[0].Subscribe(func(ev Event) {
		if ev.Slot != 2 {
			return
		}
		mu.Lock()
		events[ev.Kind]++
		switch ev.Kind {
		case EvDead:
			deadGen = ev.Generation
		case EvJoin:
			joinGen = ev.Generation
		}
		mu.Unlock()
	})
	for _, m := range ms {
		m.Start()
	}
	defer func() {
		for _, m := range ms {
			m.Stop()
		}
	}()

	// The synthetic Dead needs an observer that actually saw generation 1
	// alive; wait for node 0's agent to make that observation.
	waitFor(t, "node 0 observes slot 2 at gen 1", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return joinGen == 1
	})

	f.Node(2).Crash()
	ms[2].Stop()
	f.Node(2).Restart()
	m2, err := tb.Join(f.Node(2))
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if err := m2.Activate(); err != nil {
		t.Fatalf("activate: %v", err)
	}
	m2.Start()
	defer m2.Stop()

	// The generation bump alone must synthesize Dead(gen 1) before the
	// new generation's Join — recovery runs even when detection lost.
	waitFor(t, "synthesized dead + join for slot 2", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return events[EvDead] >= 1 && deadGen == 1 && joinGen == 2
	})
}

func TestSuspectHeldNodeKeepsHeartbeating(t *testing.T) {
	f := testFabric(2)
	tb := New(f, fastCfg())
	ms := joinAll(t, tb, f, 2)
	for _, m := range ms {
		m.Start()
	}
	defer func() {
		for _, m := range ms {
			m.Stop()
		}
	}()

	n0 := f.Node(0)
	readBeat := func() uint64 {
		rec, err := tb.readRecord(n0, 1, tb.maxVNS())
		if err != nil {
			return 0
		}
		return rec.Beat
	}

	// Pin slot 1 at Suspect: re-suspect as fast as node 1 refutes, and
	// sample the heartbeat while the control word churns.
	deadline := time.Now().Add(2 * time.Second)
	start := readBeat()
	sawSuspect, advanced := false, false
	var maxInc uint64
	for time.Now().Before(deadline) && !(sawSuspect && advanced && maxInc > 0) {
		tb.Suspect(n0, 1)
		w := tb.ctl.Load(n0, 1)
		if w.State() == StateSuspect {
			sawSuspect = true
		}
		if w.Aux() > maxInc { // Aux: the incarnation
			maxInc = w.Aux()
		}
		if b := readBeat(); b > start {
			advanced = true
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !sawSuspect {
		t.Fatal("slot never observed Suspect under scripted suspicion")
	}
	if !advanced {
		t.Fatal("heartbeat froze while the node was held Suspect")
	}
	if maxInc == 0 {
		t.Fatal("incarnation never bumped: the node stopped refuting")
	}
	// The slot must come back to rest Alive once the harassment stops.
	waitFor(t, "final refutation", func() bool {
		return tb.Snapshot(n0)[1].State == StateAlive
	})
}

// TestOnTickStepsRunOnTheAgentLoop: steps attached before and after
// Start run every tick in registration order, and stop with the member.
func TestOnTickStepsRunOnTheAgentLoop(t *testing.T) {
	f := testFabric(2)
	tb := New(f, fastCfg())
	m := joinAll(t, tb, f, 1)[0]
	var mu sync.Mutex
	var ran []int
	step := func(i int) func() {
		return func() {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
		}
	}
	snapshot := func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), ran...)
	}
	m.OnTick(step(1))
	m.Start()
	m.OnTick(step(2))
	waitFor(t, "the step attached after Start", func() bool {
		got := snapshot()
		return len(got) > 0 && got[len(got)-1] == 2
	})
	m.Stop()
	got := snapshot()
	for i, v := range got {
		if v == 2 && (i == 0 || got[i-1] != 1) {
			t.Fatalf("step 2 ran without step 1 just before it: %v", got)
		}
	}
	time.Sleep(10 * HeartbeatTick)
	if n := len(snapshot()); n != len(got) {
		t.Fatalf("%d steps ran after Stop", n-len(got))
	}
}

// TestObserveSlotFabricBudget pins what observing a peer's heartbeat
// costs: one fresh line fetch — one load that misses, no atomic — that
// leaves nothing resident.
func TestObserveSlotFabricBudget(t *testing.T) {
	f := testFabric(2)
	tb := New(f, fastCfg())
	m := joinAll(t, tb, f, 2)[0] // joining published each slot's first beat
	m.obs = map[int]*slotObs{}
	n := m.Node()
	w := tb.ctl.Load(n, 1)
	maxVNS := tb.maxVNS()
	resident := n.CacheResidentLines()
	before := n.Stats()
	m.observeSlot(1, w, maxVNS)
	d := n.Stats().Delta(before)
	if o := m.obs[1]; o == nil || o.beat != 1 {
		t.Fatalf("observation %+v, want slot 1's first beat", o)
	}
	if d.Loads != 1 || d.Misses != 1 || d.Atomics != 0 {
		t.Fatalf("observing a heartbeat: %d loads, %d misses, %d atomics; want 1, 1, 0", d.Loads, d.Misses, d.Atomics)
	}
	if got := n.CacheResidentLines(); got != resident {
		t.Fatalf("observation left %d lines resident, want %d", got, resident)
	}
}
