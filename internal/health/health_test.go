package health

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/membership"
	"flacos/internal/trace"
)

func testFabric(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{
		GlobalSize: 16 << 20,
		Nodes:      nodes,
		Latency:    fabric.DefaultLatency(),
	})
}

func fastMemCfg() membership.Config {
	return membership.Config{DeadStrikes: 2}
}

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

// rack boots n members with a health agent on every member's loop.
type rack struct {
	f     *fabric.Fabric
	tb    *membership.Table
	layer *Layer
	ms    []*membership.Member
	srcs  []*NodeSource
}

func bootRack(t *testing.T, nodes int) *rack {
	t.Helper()
	f := testFabric(nodes)
	tb := membership.New(f, fastMemCfg())
	l := New(tb)
	r := &rack{f: f, tb: tb, layer: l}
	for i := 0; i < nodes; i++ {
		m, err := tb.Join(f.Node(i))
		if err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
		if err := m.Activate(); err != nil {
			t.Fatalf("activate node %d: %v", i, err)
		}
		src := NewNodeSource(f.Node(i))
		l.Join(m, src)
		r.ms = append(r.ms, m)
		r.srcs = append(r.srcs, src)
	}
	for _, m := range r.ms {
		m.Start()
	}
	t.Cleanup(func() {
		for _, m := range r.ms {
			m.Stop()
		}
	})
	return r
}

// TestLinkDegradationRaisesDegradedAndRecovers: the core detection loop
// end to end — one node's link degrades, every agent publishes and
// observes through the arena, exactly one wins the verdict CAS, the
// event stream carries EvDegraded, and clearing the degradation brings
// EvRecovered under the same generation.
func TestLinkDegradationRaisesDegradedAndRecovers(t *testing.T) {
	r := bootRack(t, 4)
	victim := 3

	var mu sync.Mutex
	var got []membership.Event
	r.ms[0].Subscribe(func(ev membership.Event) {
		if ev.Kind == membership.EvDegraded || ev.Kind == membership.EvRecovered {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		}
	})

	r.f.Node(victim).SetLinkDegradation(8)
	waitFor(t, "EvDegraded for the victim", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, ev := range got {
			if ev.Kind == membership.EvDegraded && ev.Node == victim {
				return true
			}
		}
		return false
	})
	waitFor(t, "degraded mirror", func() bool { return r.layer.Degraded(victim) })
	vs := r.layer.Verdicts(r.f.Node(0))
	if vs[victim].State != HealthDegraded || vs[victim].Node != victim || vs[victim].Generation != 1 {
		t.Fatalf("verdict = %+v, want degraded node %d gen 1", vs[victim], victim)
	}
	// Healthy nodes carry no Degraded verdict.
	for i := 0; i < 3; i++ {
		if r.layer.Degraded(i) {
			t.Fatalf("node %d degraded with no anomaly", i)
		}
	}

	r.f.Node(victim).SetLinkDegradation(0)
	waitFor(t, "EvRecovered for the victim", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, ev := range got {
			if ev.Kind == membership.EvRecovered && ev.Node == victim && ev.Generation == 1 {
				return true
			}
		}
		return false
	})
	waitFor(t, "degraded mirror cleared", func() bool { return !r.layer.Degraded(victim) })
}

// TestErrorEWMARaisesDegraded: the scrubber-attribution path — errors
// charged to a node via NodeSource.AddErrors push its error EWMA over
// the threshold with no latency anomaly at all.
func TestErrorEWMARaisesDegraded(t *testing.T) {
	r := bootRack(t, 3)
	victim := 1

	stop := make(chan struct{})
	defer close(stop)
	go func() { // a steady error drip, as a scrub monitor would produce
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.srcs[victim].AddError()
				r.srcs[victim].AddError()
			}
		}
	}()
	waitFor(t, "error-driven degraded verdict", func() bool { return r.layer.Degraded(victim) })
}

// TestCrashClearsVerdictWithoutRecovered: dead beats degraded — when a
// degraded node crashes, the verdict is cleared for the membership
// transition to own, and no EvRecovered is synthesized from the clear.
func TestCrashClearsVerdictWithoutRecovered(t *testing.T) {
	r := bootRack(t, 4)
	victim := 2

	var recovered atomic.Int64
	r.ms[0].Subscribe(func(ev membership.Event) {
		if ev.Kind == membership.EvRecovered && ev.Node == victim {
			recovered.Add(1)
		}
	})

	r.f.Node(victim).SetLinkDegradation(8)
	waitFor(t, "degraded verdict", func() bool { return r.layer.Degraded(victim) })

	r.f.Node(victim).Crash()
	waitFor(t, "membership dead", func() bool { return !r.tb.Alive(victim) })
	waitFor(t, "verdict cleared", func() bool {
		return r.layer.Verdicts(r.f.Node(0))[victim].State == HealthUnknown
	})
	waitFor(t, "degraded mirror cleared", func() bool { return !r.layer.Degraded(victim) })
	if n := recovered.Load(); n != 0 {
		t.Fatalf("death synthesized %d EvRecovered events, want 0", n)
	}
}

// TestSuspectNodeStillEmitsHealthSignals: a node held at StateSuspect
// by repeated (false) suspicion keeps publishing health records and the
// detector keeps evaluating it — gray-failure detection must not go
// blind exactly when the liveness layer is unsure. This is the
// membership/detector gap test: Suspect slots remain first-class
// citizens of the anomaly layer.
func TestSuspectNodeStillEmitsHealthSignals(t *testing.T) {
	r := bootRack(t, 3)
	victim := 2

	// Hold the victim near-permanently Suspect: a hostile observer keeps
	// re-suspecting it from node 0; the victim keeps refuting. The CAS
	// churn guarantees the slot spends real time in StateSuspect.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	sawSuspect := make(chan struct{})
	var once sync.Once
	go func() {
		defer wg.Done()
		n := r.f.Node(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.tb.Snapshot(n)[victim]
			if snap.State == membership.StateSuspect {
				once.Do(func() { close(sawSuspect) })
			}
			time.Sleep(50 * time.Microsecond)
			// Re-suspecting is what membership's own detector would do on a
			// frozen beat; here we script it to pin the state.
			r.tb.Suspect(n, victim)
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	select {
	case <-sawSuspect:
	case <-time.After(5 * time.Second):
		t.Fatal("victim never observed Suspect")
	}

	// The victim's health record must keep advancing while suspect...
	read := func() uint64 {
		rec, err := r.layer.readSample(r.f.Node(0), victim)
		if err != nil {
			return 0
		}
		return rec.Seq
	}
	seq0 := read()
	waitFor(t, "health record seq to advance under Suspect", func() bool {
		return read() > seq0
	})

	// ...and the anomaly detector must still be able to convict it.
	r.f.Node(victim).SetLinkDegradation(8)
	waitFor(t, "degraded verdict on a Suspect node", func() bool {
		return r.layer.Degraded(victim)
	})
}

// feedProbe subscribes to a member's stream and holds the first event
// hold accepts until release is closed, counting every delivery that
// overlaps another one (only a second delivering goroutine can make one).
type feedProbe struct {
	hold     func(membership.Event) bool
	held     bool // touched only inside a delivery
	entered  chan struct{}
	release  chan struct{}
	inside   atomic.Bool
	overlaps atomic.Int64

	mu  sync.Mutex
	got []membership.Event
}

func newFeedProbe(m *membership.Member, hold func(membership.Event) bool) *feedProbe {
	p := &feedProbe{hold: hold, entered: make(chan struct{}), release: make(chan struct{})}
	m.Subscribe(p.deliver)
	return p
}

func (p *feedProbe) deliver(ev membership.Event) {
	p.mu.Lock()
	p.got = append(p.got, ev)
	p.mu.Unlock()
	if !p.inside.CompareAndSwap(false, true) {
		p.overlaps.Add(1)
		return
	}
	defer p.inside.Store(false)
	if !p.held && p.hold(ev) {
		p.held = true
		close(p.entered)
		<-p.release
	}
}

func (p *feedProbe) saw(kind membership.EventKind, node int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ev := range p.got {
		if ev.Kind == kind && ev.Node == node {
			return true
		}
	}
	return false
}

// heldOverlaps runs start until the probe holds an event, runs raise,
// waits for landed (the raised transition is in the arena, so a second
// delivering goroutine would now be delivering it), gives that goroutine
// a few more ticks, and returns how many deliveries overlapped. The held
// subscriber is released on return.
func (p *feedProbe) heldOverlaps(t *testing.T, start, raise func(), what string, landed func() bool) int64 {
	t.Helper()
	defer close(p.release)
	waitFor(t, "subscriber holding an event", func() bool {
		start()
		select {
		case <-p.entered:
			return true
		default:
			return false
		}
	})
	raise()
	waitFor(t, what, landed)
	time.Sleep(2 * time.Millisecond)
	return p.overlaps.Load()
}

// TestMemberFeedIsOrdered: a member's liveness and health events reach
// its subscribers from one goroutine. While a subscriber on member 0 is
// held inside one event, no other delivery from member 0 may arrive —
// neither a health event raised behind a liveness event nor a liveness
// event raised behind a health event — and the held-back event is
// delivered once the subscriber returns.
func TestMemberFeedIsOrdered(t *testing.T) {
	t.Run("health behind liveness", func(t *testing.T) {
		r := bootRack(t, 4)
		const suspect, victim = 1, 3
		p := newFeedProbe(r.ms[0], func(ev membership.Event) bool {
			return ev.Kind == membership.EvSuspect && ev.Node == suspect
		})
		n := p.heldOverlaps(t,
			func() { r.tb.Suspect(r.f.Node(0), suspect) },
			func() { r.f.Node(victim).SetLinkDegradation(8) },
			"Degraded verdict in the arena", func() bool {
				return r.layer.Verdicts(r.f.Node(1))[victim].State == HealthDegraded
			})
		if n != 0 {
			t.Fatalf("%d deliveries overlapped a held liveness event", n)
		}
		waitFor(t, "EvDegraded after release", func() bool { return p.saw(membership.EvDegraded, victim) })
	})
	t.Run("liveness behind health", func(t *testing.T) {
		r := bootRack(t, 4)
		const degraded, victim = 3, 2
		p := newFeedProbe(r.ms[0], func(ev membership.Event) bool { return ev.Kind == membership.EvDegraded })
		n := p.heldOverlaps(t,
			func() { r.f.Node(degraded).SetLinkDegradation(8) },
			func() { r.f.Node(victim).Crash() },
			"crashed node suspected in the arena", func() bool {
				st := r.tb.Snapshot(r.f.Node(1))[victim].State
				return st == membership.StateSuspect || st == membership.StateDead
			})
		if n != 0 {
			t.Fatalf("%d deliveries overlapped a held health event", n)
		}
		waitFor(t, "EvSuspect or EvDead after release", func() bool {
			return p.saw(membership.EvSuspect, victim) || p.saw(membership.EvDead, victim)
		})
	})
}

// TestMemberStopStopsHealthAgent: the health agent lives on its member's
// loop, so Member.Stop alone freezes the slot's health record.
func TestMemberStopStopsHealthAgent(t *testing.T) {
	r := bootRack(t, 3)
	const victim = 2
	seq := func() uint64 {
		rec, err := r.layer.readSample(r.f.Node(0), victim)
		if err != nil {
			return 0
		}
		return rec.Seq
	}
	waitFor(t, "health record publishing", func() bool { return seq() > 1 })
	r.ms[victim].Stop()
	stopped := seq()
	time.Sleep(20 * membership.HeartbeatTick)
	if got := seq(); got != stopped {
		t.Fatalf("health record seq advanced %d -> %d after Member.Stop", stopped, got)
	}
}

// ---- controller unit tests with scripted gates ----

type fakeGates struct {
	mu        sync.Mutex
	log       []string // serialized action log
	fenceGens []uint64
}

func (g *fakeGates) record(s string) {
	g.mu.Lock()
	g.log = append(g.log, s)
	g.mu.Unlock()
}

func (g *fakeGates) Log() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.log))
	copy(out, g.log)
	return out
}

func (g *fakeGates) SetNodeServing(id int, serving bool) {
	g.record(fmt.Sprintf("serving(%d,%v)", id, serving))
}
func (g *fakeGates) ReclaimNode(from *fabric.Node, dead int) int {
	g.record(fmt.Sprintf("reclaim(%d)", dead))
	return 0
}
func (g *fakeGates) FenceNode(from *fabric.Node, nodeID int, gen uint64) int {
	g.mu.Lock()
	g.fenceGens = append(g.fenceGens, gen)
	g.log = append(g.log, fmt.Sprintf("fence(%d,%d)", nodeID, gen))
	g.mu.Unlock()
	return 0
}
func newFakeController(f *fabric.Fabric, g *fakeGates, onStage func(Stage, int, uint64)) *Controller {
	return NewController(ControllerConfig{
		Sched:   g,
		Store:   g,
		OnStage: onStage,
		From:    f.Node(0),
	})
}

// stageCounts counts the stages a controller reports through its OnStage
// hook.
type stageCounts [StageDead + 1]atomic.Uint64

// hook counts each stage, then passes it on to then, if set.
func (c *stageCounts) hook(then func(Stage, int, uint64)) func(Stage, int, uint64) {
	return func(st Stage, node int, gen uint64) {
		c[st].Add(1)
		if then != nil {
			then(st, node, gen)
		}
	}
}

// String lists the terminal stages' counts.
func (c *stageCounts) String() string {
	return fmt.Sprintf("drained=%d abort=%d rejoined=%d dead=%d",
		c[StageDrained].Load(), c[StageAbort].Load(), c[StageRejoined].Load(), c[StageDead].Load())
}

func logEquals(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("action log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action log = %v, want %v", got, want)
		}
	}
}

// TestControllerDrainPipelineOrder: one EvDegraded runs the full drain
// in stage order — gate, then fence (at the node's CURRENT generation,
// before any death) — and the trace timeline carries the matching span.
func TestControllerDrainPipelineOrder(t *testing.T) {
	f := testFabric(2)
	rec := trace.New(f, trace.Config{RingCap: 1 << 10})
	g := &fakeGates{}
	var st stageCounts
	c := newFakeController(f, g, st.hook(nil))
	c.SetTrace(rec.Writer(0))

	c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 5})

	logEquals(t, g.Log(), []string{
		"serving(1,false)", "fence(1,5)",
	})
	if st[StageDrained].Load() != 1 || st[StageAbort].Load() != 0 {
		t.Fatalf("stages %v, want one clean drain", &st)
	}
	// A duplicate EvDegraded (another agent's delivery) is a no-op.
	c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 5})
	if st[StageDrained].Load() != 1 {
		t.Fatalf("duplicate EvDegraded re-ran the drain: %v", &st)
	}

	evs := rec.Collector().Snapshot(f.Node(0)).Events
	var begin, end, fence int
	for _, e := range evs {
		if e.Sub != trace.SubHealth {
			continue
		}
		switch {
		case e.Kind == trace.KDrain && e.Flags == trace.FlagBegin:
			begin++
		case e.Kind == trace.KDrain && e.Flags == trace.FlagEnd:
			end++
			if e.Arg1&maskAborted != 0 {
				t.Fatalf("clean drain traced as aborted: %+v", e)
			}
		case e.Kind == trace.KFenceEarly:
			fence++
			if e.Arg1 != 6 {
				t.Fatalf("KFenceEarly arg1 = %d, want fenced generation 6", e.Arg1)
			}
		}
	}
	if begin != 1 || end != 1 || fence != 1 {
		t.Fatalf("trace spans: begin=%d end=%d fenceEarly=%d, want 1 each", begin, end, fence)
	}
}

// TestControllerRecoverRunsRejoin: EvRecovered after a completed drain
// runs the rejoin callback and reopens every gate in reverse.
func TestControllerRecoverRunsRejoin(t *testing.T) {
	f := testFabric(2)
	g := &fakeGates{}
	rejoined := 0
	var st stageCounts
	c := newFakeController(f, g, st.hook(nil))
	c.cfg.Rejoin = func(node int, gen uint64) error {
		g.record(fmt.Sprintf("rejoin(%d,%d)", node, gen))
		rejoined++
		return nil
	}

	c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 5})
	c.OnEvent(membership.Event{Kind: membership.EvRecovered, Slot: 1, Node: 1, Generation: 5})

	logEquals(t, g.Log(), []string{
		"serving(1,false)", "fence(1,5)",
		"rejoin(1,5)", "serving(1,true)",
	})
	if rejoined != 1 || st[StageRejoined].Load() != 1 {
		t.Fatalf("rejoin ran %d times (stages %v), want 1", rejoined, &st)
	}
	// The node can degrade and drain again under a later generation.
	c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 6})
	if st[StageDrained].Load() != 2 {
		t.Fatalf("re-drain after rejoin did not run: %v", &st)
	}
}

// TestControllerBrokenSkipDrainFence: the planted self-test bug — with
// the break set, the drain runs but never fences. The torture workload's
// zombie-write checker exists to catch exactly this hole; here we pin
// the break's mechanics so the self-test fails for the right reason.
func TestControllerBrokenSkipDrainFence(t *testing.T) {
	f := testFabric(2)
	g := &fakeGates{}
	c := newFakeController(f, g, nil)
	SetBrokenSkipDrainFence(true)
	t.Cleanup(func() { SetBrokenSkipDrainFence(false) })

	c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 5})
	logEquals(t, g.Log(), []string{
		"serving(1,false)", // no fence!
	})

	// The classic death fence is NOT subject to the break.
	c.OnEvent(membership.Event{Kind: membership.EvDead, Slot: 1, Node: 1, Generation: 5})
	found := false
	for _, s := range g.Log() {
		if s == "fence(1,5)" {
			found = true
		}
	}
	if !found {
		t.Fatal("death fence was skipped by the drain-fence break")
	}
}

// TestRaceDegradedVsDead: EvDegraded's drain racing EvDead on the same
// node, deterministically interleaved — the death lands while the drain
// is held between its gate and fence stages. The drain must abort at
// the boundary, the node must end fenced EXACTLY once (by the death
// path, at the dead generation), and no rejoin may run afterward. Run
// under -race: the controller state machine is exercised from two
// goroutines exactly as two members' agent loops would be if one
// controller were subscribed to both.
func TestRaceDegradedVsDead(t *testing.T) {
	f := testFabric(2)
	rec := trace.New(f, trace.Config{RingCap: 1 << 10})
	g := &fakeGates{}

	holdGate := make(chan struct{})
	releaseGate := make(chan struct{})
	var held atomic.Bool
	var stages stageCounts
	c := newFakeController(f, g, stages.hook(func(st Stage, node int, gen uint64) {
		if st == StageGate && held.CompareAndSwap(false, true) {
			close(holdGate) // signal: drain reached mid-pipeline
			<-releaseGate   // hold it there until the death lands
		}
	}))
	c.SetTrace(rec.Writer(0))
	c.cfg.Rejoin = func(node int, gen uint64) error {
		t.Error("rejoin ran after death")
		return nil
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 5})
	}()
	go func() {
		defer wg.Done()
		<-holdGate // the drain is provably mid-pipeline
		c.OnEvent(membership.Event{Kind: membership.EvDead, Slot: 1, Node: 1, Generation: 5})
		close(releaseGate)
	}()
	wg.Wait()

	// Exactly one fence: the death path's. The drain's fence stage sat
	// after the abort boundary and must not have run.
	g.mu.Lock()
	fences := append([]uint64(nil), g.fenceGens...)
	g.mu.Unlock()
	if len(fences) != 1 || fences[0] != 5 {
		t.Fatalf("fence calls = %v, want exactly [5]", fences)
	}
	if stages[StageAbort].Load() != 1 || stages[StageDrained].Load() != 0 || stages[StageDead].Load() != 1 {
		t.Fatalf("stages %v, want 1 aborted drain + 1 dead sweep", &stages)
	}
	// A late EvRecovered for the dead generation must not resurrect.
	c.OnEvent(membership.Event{Kind: membership.EvRecovered, Slot: 1, Node: 1, Generation: 5})
	if stages[StageRejoined].Load() != 0 {
		t.Fatal("EvRecovered after death ran a rejoin")
	}

	// Trace timeline: the KDrain span closed with the abort bit, and no
	// KRejoin span exists anywhere after it.
	evs := rec.Collector().Snapshot(f.Node(0)).Events
	sawAbortEnd, sawViewFence := false, false
	for _, e := range evs {
		if e.Sub == trace.SubRedis && e.Kind == trace.KViewFence && e.Arg0 == 1 && e.Arg1 == 5 {
			sawViewFence = true // the death sweep's fence, at the dead generation
		}
		if e.Sub != trace.SubHealth {
			continue
		}
		if e.Kind == trace.KDrain && e.Flags == trace.FlagEnd {
			if e.Arg1&maskAborted == 0 {
				t.Fatalf("raced drain closed without the abort bit: %+v", e)
			}
			sawAbortEnd = true
		}
		if e.Kind == trace.KRejoin {
			t.Fatalf("rejoin span after death: %+v", e)
		}
	}
	if !sawAbortEnd {
		t.Fatal("no aborted KDrain end span in the timeline")
	}
	if !sawViewFence {
		t.Fatal("no KViewFence for the death sweep's fence in the timeline")
	}
}

// TestRaceRecoveredVsRunningDrain: EvRecovered arriving while the drain
// is still mid-pipeline. The rejoin must not run concurrently with the
// drain — it is deferred to the drain's completion and runs exactly
// once, strictly after the drain's end in the trace timeline.
func TestRaceRecoveredVsRunningDrain(t *testing.T) {
	f := testFabric(2)
	rec := trace.New(f, trace.Config{RingCap: 1 << 10})
	g := &fakeGates{}

	holdFence := make(chan struct{})
	releaseFence := make(chan struct{})
	var held atomic.Bool
	var stages stageCounts
	c := newFakeController(f, g, stages.hook(func(st Stage, node int, gen uint64) {
		if st == StageFence && held.CompareAndSwap(false, true) {
			close(holdFence)
			<-releaseFence
		}
	}))
	c.SetTrace(rec.Writer(0))
	var rejoins atomic.Int64
	c.cfg.Rejoin = func(node int, gen uint64) error {
		rejoins.Add(1)
		return nil
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 5})
	}()
	go func() {
		defer wg.Done()
		<-holdFence // the drain is provably mid-pipeline
		c.OnEvent(membership.Event{Kind: membership.EvRecovered, Slot: 1, Node: 1, Generation: 5})
		if n := rejoins.Load(); n != 0 {
			t.Errorf("rejoin ran %d times while the drain was still mid-pipeline", n)
		}
		close(releaseFence)
	}()
	wg.Wait()

	if n := rejoins.Load(); n != 1 {
		t.Fatalf("rejoin ran %d times, want exactly 1 (after drain completion)", n)
	}
	if stages[StageDrained].Load() != 1 || stages[StageAbort].Load() != 0 || stages[StageRejoined].Load() != 1 {
		t.Fatalf("stages %v, want one clean drain then one rejoin", &stages)
	}

	// Timeline order: KDrain end strictly precedes KRejoin begin. Both
	// spans are emitted by the one controller writer, so Seq gives a
	// total order.
	evs := rec.Collector().Snapshot(f.Node(0)).Events
	var drainEnd, rejoinBegin *trace.Event
	for i := range evs {
		e := &evs[i]
		if e.Sub != trace.SubHealth {
			continue
		}
		if e.Kind == trace.KDrain && e.Flags == trace.FlagEnd {
			drainEnd = e
		}
		if e.Kind == trace.KRejoin && e.Flags == trace.FlagBegin {
			rejoinBegin = e
		}
	}
	if drainEnd == nil || rejoinBegin == nil {
		t.Fatalf("missing spans: drainEnd=%v rejoinBegin=%v", drainEnd, rejoinBegin)
	}
	if rejoinBegin.Seq <= drainEnd.Seq {
		t.Fatalf("rejoin began (seq %d) before the drain ended (seq %d)",
			rejoinBegin.Seq, drainEnd.Seq)
	}
}

// TestControllerJoinReopensGates: the crash-restart path — a node the
// controller drained dies, restarts, and rejoins under a bumped
// generation outside the controller's own rejoin pipeline. StageDead
// reports the death sweep done, after its last action, and the EvJoin
// must reopen the gates.
func TestControllerJoinReopensGates(t *testing.T) {
	f := testFabric(2)
	g := &fakeGates{}
	c := newFakeController(f, g, func(st Stage, node int, gen uint64) {
		if st == StageDead {
			g.record(fmt.Sprintf("stage(%v,%d,%d)", st, node, gen))
		}
	})

	c.OnEvent(membership.Event{Kind: membership.EvDegraded, Slot: 1, Node: 1, Generation: 5})
	c.OnEvent(membership.Event{Kind: membership.EvDead, Slot: 1, Node: 1, Generation: 5})
	c.OnEvent(membership.Event{Kind: membership.EvJoin, Slot: 1, Node: 1, Generation: 6})

	want := []string{
		"serving(1,false)", "fence(1,5)",
		"serving(1,false)", "reclaim(1)", "fence(1,5)", "stage(dead,1,5)",
		"serving(1,true)",
	}
	logEquals(t, g.Log(), want)
}

// TestReadRecordFabricBudget pins what reading a peer's health record
// costs: one fresh line fetch — one load that misses, no atomic — that
// leaves nothing resident.
func TestReadRecordFabricBudget(t *testing.T) {
	f := testFabric(2)
	tb := membership.New(f, fastMemCfg())
	l := New(tb)
	// The members never Start: no agent loop runs beside the measurement.
	var agents []*Agent
	for i := 0; i < 2; i++ {
		m, err := tb.Join(f.Node(i))
		if err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
		agents = append(agents, l.Join(m, NewNodeSource(f.Node(i))))
	}
	agents[1].publishSample()

	n := f.Node(0)
	resident := n.CacheResidentLines()
	before := n.Stats()
	rec, err := l.readSample(n, 1)
	d := n.Stats().Delta(before)
	if err != nil || rec.Seq != 1 || rec.Node != 1 {
		t.Fatalf("read %+v, %v; want node 1's first sample", rec, err)
	}
	if d.Loads != 1 || d.Misses != 1 || d.Atomics != 0 {
		t.Fatalf("reading a record: %d loads, %d misses, %d atomics; want 1, 1, 0", d.Loads, d.Misses, d.Atomics)
	}
	if got := n.CacheResidentLines(); got != resident {
		t.Fatalf("read left %d lines resident, want %d", got, resident)
	}
}
