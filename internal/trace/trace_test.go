package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"flacos/internal/fabric"
)

func testFabric(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{
		GlobalSize:         4 << 20,
		Nodes:              nodes,
		CacheCapacityLines: -1,
	})
}

// TestEncodeDecodeQuick: Encode/Decode round-trips every payload field
// for arbitrary values (Seq is carried by the slot's publication word,
// not the payload, so it is excluded by construction).
func TestEncodeDecodeQuick(t *testing.T) {
	prop := func(ts uint64, sub, kind, node, flags uint8, arg0, arg1 uint64) bool {
		in := Event{
			TS:    ts,
			Sub:   Subsys(sub),
			Kind:  Kind(kind),
			Node:  node,
			Flags: Flags(flags),
			Arg0:  arg0,
			Arg1:  arg1,
		}
		return Decode(Encode(in)) == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEmitCollectRoundTrip(t *testing.T) {
	f := testFabric(t, 2)
	r := New(f, Config{RingCap: 256})
	w0, w1 := r.Writer(0), r.Writer(1)
	for i := uint64(0); i < 50; i++ {
		w0.Emit(SubApp, KMark, 0, i, i*2)
		w1.Emit(SubSched, KDispatch, FlagBegin, i, 7)
	}
	rt := r.Collector().Snapshot(f.Node(0))
	if rt.Count() != 100 {
		t.Fatalf("merged %d events, want 100", rt.Count())
	}
	if d := rt.TotalDropped(); d != 0 {
		t.Fatalf("dropped %d events, want 0", d)
	}
	for node, ns := range rt.Nodes {
		if len(ns.Events) != 50 {
			t.Fatalf("node %d: %d events, want 50", node, len(ns.Events))
		}
		for i, ev := range ns.Events {
			if ev.Seq != uint64(i) {
				t.Fatalf("node %d: event %d has seq %d", node, i, ev.Seq)
			}
			if int(ev.Node) != node {
				t.Fatalf("node %d: event attributed to node %d", node, ev.Node)
			}
			if ev.Arg0 != uint64(i) {
				t.Fatalf("node %d event %d: arg0=%d", node, i, ev.Arg0)
			}
		}
	}
}

// TestCrashRecovery is the headline guarantee: a crashed node's
// published events are recovered and merged by a surviving node.
func TestCrashRecovery(t *testing.T) {
	f := testFabric(t, 3)
	r := New(f, Config{RingCap: 256})
	for i := uint64(0); i < 100; i++ {
		r.Writer(1).Emit(SubFS, KJournalCommit, 0, i, 0xdead)
	}
	r.Writer(0).Emit(SubApp, KMark, 0, 1, 1)
	f.Node(1).Crash()

	rt := r.Collector().Snapshot(f.Node(0))
	var fromDead []Event
	for _, ev := range rt.Events {
		if ev.Node == 1 {
			fromDead = append(fromDead, ev)
		}
	}
	if len(fromDead) != 100 {
		t.Fatalf("recovered %d pre-crash events from node 1, want 100", len(fromDead))
	}
	for _, ev := range fromDead {
		if ev.Sub != SubFS || ev.Kind != KJournalCommit || ev.Arg1 != 0xdead {
			t.Fatalf("torn event recovered from crashed node: %v", ev)
		}
	}
	if rt.Count() != 101 {
		t.Fatalf("merged %d events, want 101", rt.Count())
	}
}

func TestRingFullDropsNewest(t *testing.T) {
	f := testFabric(t, 1)
	r := New(f, Config{RingCap: 8})
	w := r.Writer(0)
	n, lat := f.Node(0), f.Latency()
	for i := uint64(0); i < 20; i++ {
		before := n.Stats()
		w.Emit(SubApp, KMark, 0, i, 0)
		// A drop is the dropped count's one atomic and nothing else.
		if d := n.Stats().Delta(before); i >= 8 && d != (fabric.NodeStatsSnapshot{Atomics: 1, VirtualNS: uint64(lat.AtomicNS + n.Hops()*lat.HopNS)}) {
			t.Fatalf("drop %d cost %+v, want one atomic", i-8, d)
		}
	}
	if d := w.Dropped(); d != 12 {
		t.Fatalf("Dropped() = %d, want 12", d)
	}
	c := r.Collector()
	rt := c.Snapshot(f.Node(0))
	if rt.Count() != 8 || rt.TotalDropped() != 12 {
		t.Fatalf("snapshot: %d events dropped=%d, want 8/12", rt.Count(), rt.TotalDropped())
	}
	for i, ev := range rt.Events {
		if ev.Arg0 != uint64(i) {
			t.Fatalf("survivor %d is arg0=%d; drop-newest should keep the oldest 8", i, ev.Arg0)
		}
	}
}

func TestSpansAndChromeJSON(t *testing.T) {
	f := testFabric(t, 2)
	r := New(f, Config{RingCap: 64})
	w := r.Writer(0)
	w.Begin(SubSched, KDispatch, 42, 1)
	w.End(SubSched, KComplete, 42, 1)
	w.Begin(SubServerless, KInvoke, 7, 0) // left open: runner "crashed"
	w.Emit(SubMemsys, KShootdown, 0, 0x1000, 2)

	rt := r.Collector().Snapshot(f.Node(1))
	blob := rt.ChromeJSON()
	if !json.Valid(blob) {
		t.Fatalf("ChromeJSON is not valid JSON: %s", blob)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var complete, instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if ev["name"] != "sched/dispatch" {
				t.Fatalf("span name %q, want sched/dispatch", ev["name"])
			}
		case "i":
			instants++
		}
	}
	if complete != 1 || instants != 2 {
		t.Fatalf("chrome events: %d spans %d instants, want 1 and 2", complete, instants)
	}

	tl := rt.TimelineTail()
	for _, want := range []string{"sched/dispatch", "memsys/shootdown", "begin"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestVNS(t *testing.T) {
	cases := map[uint64]string{
		0:         "0ns",
		750:       "750ns",
		1750:      "1.75us",
		2_500_000: "2.50ms",
		3 << 30:   "3.22s",
	}
	for ns, want := range cases {
		if got := VNS(ns); got != want {
			t.Fatalf("VNS(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestVirtualTimestamps(t *testing.T) {
	f := fabric.New(fabric.Config{
		GlobalSize:         4 << 20,
		Nodes:              1,
		CacheCapacityLines: -1,
		Latency:            fabric.DefaultLatency(),
	})
	r := New(f, Config{RingCap: 64})
	n := f.Node(0)
	w := r.Writer(0)
	w.Emit(SubApp, KMark, 0, 0, 0)
	n.ChargeNS(5000)
	w.Emit(SubApp, KMark, 0, 1, 0)
	rt := r.Collector().Snapshot(n)
	if rt.Count() != 2 {
		t.Fatalf("got %d events", rt.Count())
	}
	if gap := rt.Events[1].TS - rt.Events[0].TS; gap < 5000 {
		t.Fatalf("virtual timestamp gap %d, want >= 5000", gap)
	}
}

// TestFirehoseRangedWriteBack: with fabric events on, an application
// burst that dirties N lines and writes them back in one ranged call
// produces exactly ONE write-back-range event carrying the burst's first
// line and line count — not N per-line events — while misses keep their
// per-line records.
func TestFirehoseRangedWriteBack(t *testing.T) {
	f := testFabric(t, 1)
	r := New(f, Config{RingCap: 256, FabricEvents: true})
	n := f.Node(0)

	const lines = 8
	g := f.Reserve(lines*fabric.LineSize, fabric.LineSize)
	for l := uint64(0); l < lines; l++ {
		n.Store64(g.Add(l*fabric.LineSize), l)
	}
	n.WriteBackRange(g, lines*fabric.LineSize)
	n.SetOpHook(nil) // the snapshot's own misses are not the burst's

	rt := r.Collector().Snapshot(n)
	var ranged, perLine, misses int
	for _, ns := range rt.Nodes {
		for _, ev := range ns.Events {
			switch ev.Kind {
			case KWriteBackRange:
				ranged++
				if ev.Arg0 != g.Line() || ev.Arg1 != lines {
					t.Errorf("ranged event arg0=%d arg1=%d, want first line %d count %d",
						ev.Arg0, ev.Arg1, g.Line(), lines)
				}
			case KWriteBack:
				perLine++
			case KMiss:
				misses++
			}
		}
	}
	if ranged != 1 {
		t.Errorf("got %d write-back-range events, want exactly 1", ranged)
	}
	if perLine != 0 {
		t.Errorf("got %d per-line write-back events riding an explicit ranged call, want 0", perLine)
	}
	if misses != lines {
		t.Errorf("got %d miss events, want %d (stores fetch each line once)", misses, lines)
	}
}

// TestCollectSlotFabricBudget pins what collecting a live slot costs: one
// fresh line fetch — one load that misses, no atomic, no invalidate — that
// leaves nothing resident. The only atomic is the header's dropped count,
// read once per ring.
func TestCollectSlotFabricBudget(t *testing.T) {
	f := testFabric(t, 2)
	r := New(f, Config{RingCap: 1})
	r.Writer(1).Emit(SubApp, KMark, 0, 7, 0)
	n := f.Node(0)
	before := n.Stats()
	snap := r.Collector().SnapshotNode(n, 1)
	d := n.Stats().Delta(before)
	if len(snap.Events) != 1 || snap.Events[0].Arg0 != 7 {
		t.Fatalf("collected %v, want the one event", snap.Events)
	}
	if d.Atomics != 1 || d.Loads != 1 || d.Misses != 1 || d.Invalidates != 0 {
		t.Fatalf("collecting one live slot: %d atomics (1 is the header's), %d loads, %d misses, %d invalidates; want 1, 1, 1, 0",
			d.Atomics, d.Loads, d.Misses, d.Invalidates)
	}
	if got := n.CacheResidentLines(); got != 0 {
		t.Fatalf("collection left %d lines resident, want 0", got)
	}
}
