package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"flacos/internal/fabric"
)

// The tracer is the bench's outside-in view of the layers: every span is
// opened and closed by bench code around a call into a layer's public
// function, never by the layer itself. Because one driver goroutine steps
// the whole rack, spans nest strictly (a stack suffices) and the rack-wide
// counters move only on behalf of the innermost open span, so a span's
// self cost is its own delta minus its children's, in both clocks and in
// every fabric counter. The tracer charges no simulated time.

// spanKind is one (layer, name) pair, created once per driver so opening
// a span costs no lookup. It accumulates the self cost of every call.
type spanKind struct {
	layer, name string
	calls       int
	virt        []uint64                 // self simulated ns per call
	host        []uint64                 // self host ns per call
	self        fabric.NodeStatsSnapshot // summed over the calls
	hostNS      uint64                   // likewise
}

// openSpan is a span on the stack. base starts as the rack counters at
// begin and is advanced by each finished child's total, so at end
// now-base is the span's self cost.
type openSpan struct {
	kind        *spanKind
	start, base fabric.NodeStatsSnapshot
	hostStart   int64
	hostBase    int64
	retained    int // index in tracer.spans, -1 past maxRetained
}

// addStats is a+b, field by field. NodeStatsSnapshot has Delta (a-b) and
// no sum; a-(0-b) is the sum, the counters being unsigned and wrapping.
func addStats(a, b fabric.NodeStatsSnapshot) fabric.NodeStatsSnapshot {
	return a.Delta(fabric.NodeStatsSnapshot{}.Delta(b))
}

// span is one finished call kept for the Chrome trace file.
type span struct {
	kind               *spanKind
	op, parent         int
	hostStart, hostEnd int64  // ns since the tracer started
	virtStart, virtEnd uint64 // rack-wide simulated ns
	stats              fabric.NodeStatsSnapshot
}

// maxRetained bounds the spans kept verbatim for the trace file (the
// ledger aggregates every span regardless): a 600,000-op workload would
// otherwise write a file no trace viewer opens.
const maxRetained = 40000

type tracer struct {
	f     *fabric.Fabric
	on    bool // spans are recorded only while on (the measured phase, and calls a driver opts in)
	t0    time.Time
	kinds []*spanKind
	stack []openSpan
	spans []span
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable points the tracer at the rack whose counters it snapshots and
// starts recording; disable stops it. Both tolerate a nil tracer.
func (t *tracer) enable(f *fabric.Fabric) {
	if t != nil {
		t.f, t.on = f, true
	}
}

func (t *tracer) disable() {
	if t != nil {
		t.on = false
	}
}

// kind registers a (layer, name) pair. On a nil tracer it returns nil,
// and begin/end on a nil kind do nothing — the untraced run pays two
// nil checks per call site.
func (t *tracer) kind(layer, name string) *spanKind {
	if t == nil {
		return nil
	}
	for _, k := range t.kinds {
		if k.layer == layer && k.name == name {
			return k
		}
	}
	k := &spanKind{layer: layer, name: name}
	t.kinds = append(t.kinds, k)
	return k
}

func (t *tracer) begin(k *spanKind) {
	if k == nil || !t.on {
		return
	}
	s := t.f.RackStats()
	h := time.Since(t.t0).Nanoseconds()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].retained
	}
	retained := -1
	if len(t.spans) < maxRetained {
		retained = len(t.spans)
		t.spans = append(t.spans, span{kind: k, op: t.op, parent: parent, hostStart: h, virtStart: s.VirtualNS})
	}
	t.stack = append(t.stack, openSpan{kind: k, start: s, base: s, hostStart: h, hostBase: h, retained: retained})
}

func (t *tracer) end(k *spanKind) {
	if k == nil || !t.on {
		return
	}
	now := t.f.RackStats()
	h := time.Since(t.t0).Nanoseconds()
	top := len(t.stack) - 1
	o := t.stack[top]
	if o.kind != k {
		panic("bench: span end does not match the open span " + o.kind.layer + "." + o.kind.name)
	}
	t.stack = t.stack[:top]
	self := now.Delta(o.base)
	k.calls++
	k.virt = append(k.virt, self.VirtualNS)
	k.host = append(k.host, uint64(h-o.hostBase))
	k.self, k.hostNS = addStats(k.self, self), k.hostNS+uint64(h-o.hostBase)
	if top > 0 {
		// Advance the parent's base past this whole span.
		p := &t.stack[top-1]
		p.base = addStats(p.base, now.Delta(o.start))
		p.hostBase += h - o.hostStart
	}
	if o.retained >= 0 {
		sp := &t.spans[o.retained]
		sp.hostEnd, sp.virtEnd, sp.stats = h, now.VirtualNS, now.Delta(o.start)
	}
}

// nextOp numbers the spans that follow; a workload op's spans share an id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// sum adds up the self cost of every kind in layer ("" for all); nothing
// on a nil tracer.
func (t *tracer) sum(layer string) (calls int, self fabric.NodeStatsSnapshot, hostNS uint64) {
	if t == nil {
		return
	}
	for _, k := range t.kinds {
		if layer == "" || k.layer == layer {
			calls, self, hostNS = calls+k.calls, addStats(self, k.self), hostNS+k.hostNS
		}
	}
	return
}

func (k *spanKind) virtMedian() float64 { return percentile(sortU64(k.virt), 50) }
func (k *spanKind) hostMedian() float64 { return percentile(sortU64(k.host), 50) }

// perCall is a summed self counter divided by the number of calls.
func (k *spanKind) perCall(v uint64) float64 { return ratio(float64(v), float64(k.calls)) }

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the retained spans as Chrome trace_event JSON, twice
// over: process 1 lays them out on the host clock, process 2 on the
// simulated clock, so the same op can be read in either time.
func (t *tracer) writeChrome(path string) error {
	events := make([]traceEvent, 0, 2*len(t.spans)+2)
	for pid, name := range []string{1: "host clock", 2: "simulated clock"} {
		if name != "" {
			events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
		}
	}
	for i, s := range t.spans {
		args := map[string]any{
			"op": s.op, "span": i, "parent": s.parent,
			"host_ns": s.hostEnd - s.hostStart, "virt_ns": s.virtEnd - s.virtStart,
			"loads": s.stats.Loads, "stores": s.stats.Stores, "misses": s.stats.Misses,
			"writebacks": s.stats.WriteBacks, "invalidates": s.stats.Invalidates,
			"atomics": s.stats.Atomics, "fences": s.stats.Fences,
		}
		name := s.kind.layer + "." + s.kind.name
		events = append(events,
			traceEvent{Name: name, Cat: s.kind.layer, Ph: "X", PID: 1, TID: 1,
				TS: float64(s.hostStart) / 1e3, Dur: float64(s.hostEnd-s.hostStart) / 1e3, Args: args},
			traceEvent{Name: name, Cat: s.kind.layer, Ph: "X", PID: 2, TID: 1,
				TS: float64(s.virtStart) / 1e3, Dur: float64(s.virtEnd-s.virtStart) / 1e3, Args: args})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
