package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// Collector extracts and merges trace rings. Any live node can collect
// any ring — including a crashed node's, which is the whole point: the
// rings live in home global memory, so whatever a dead node published
// before crashing is still there for its peers to read. One collector
// at a time: snapshots are serialized by an internal mutex.
type Collector struct {
	rec *Recorder
	mu  sync.Mutex
}

// Collector returns a collector for r's rings.
func (r *Recorder) Collector() *Collector { return &Collector{rec: r} }

// NodeSnapshot is one ring's extracted contents.
type NodeSnapshot struct {
	Events  []Event // ticket order
	Dropped uint64  // ring-full drops the node counted (from the header)
	Skipped int     // slots rejected as unstable or corrupt
}

// snapshotNodeLocked reads node's ring through reader (any live node) and
// returns every published event. Collecting consumes nothing, so a ring
// keeps the oldest events it has room for: tickets 0 to cap-1. Each slot
// is read fresh, which drops the reader's own copy of it, so an event that
// reader itself is writing at that moment is lost.
// Caller holds c.mu.
func (c *Collector) snapshotNodeLocked(reader *fabric.Node, node int) NodeSnapshot {
	r := c.rec
	hdr := r.hdrG.Add(uint64(node) * fabric.LineSize)
	base := r.ringG.Add(uint64(node) * r.cap * slotBytes)
	snap := NodeSnapshot{Dropped: reader.AtomicLoad64(hdr.Add(offDropped))}
	for i := uint64(0); i < r.cap; i++ {
		g := base.Add(i * slotBytes)
		for attempt := 0; ; attempt++ {
			if attempt == 4 {
				snap.Skipped++ // never stabilized under live rewriting, or corrupt
				break
			}
			l, err := eventLine.Read(reader, g)
			if err == ds.ErrPubEmpty {
				break // never written
			}
			if err != nil {
				continue // a republish raced the fetch, or the line is corrupt; retry
			}
			t := l.Seq - 1
			if t&(r.cap-1) != i {
				break // a ticket that does not belong in this slot: nothing live
			}
			if t >= r.cap {
				snap.Skipped++ // a ticket the writer drops, never publishes: not data
				break
			}
			ev := Decode(l.Payload)
			if int(ev.Node) != node || ev.Sub >= numSubsys || ev.Kind >= numKinds {
				// Payload failed sanity checks: count it and move on
				// rather than poisoning the merged timeline.
				snap.Skipped++
				break
			}
			ev.Seq = t
			snap.Events = append(snap.Events, ev)
			break
		}
	}
	sort.Slice(snap.Events, func(a, b int) bool { return snap.Events[a].Seq < snap.Events[b].Seq })
	return snap
}

// RackTrace is every node's snapshot merged into one timeline.
type RackTrace struct {
	Nodes  []NodeSnapshot // node i's at Nodes[i]
	Events []Event        // merged: by timestamp, then node, then ticket
}

// Snapshot captures all rings through reader and merges them by virtual
// timestamp (node then ticket break ties deterministically).
func (c *Collector) Snapshot(reader *fabric.Node) *RackTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := &RackTrace{}
	for node := 0; node < c.rec.fab.NumNodes(); node++ {
		ns := c.snapshotNodeLocked(reader, node)
		rt.Nodes = append(rt.Nodes, ns)
		rt.Events = append(rt.Events, ns.Events...)
	}
	sort.Slice(rt.Events, func(a, b int) bool {
		ea, eb := rt.Events[a], rt.Events[b]
		if ea.TS != eb.TS {
			return ea.TS < eb.TS
		}
		if ea.Node != eb.Node {
			return ea.Node < eb.Node
		}
		return ea.Seq < eb.Seq
	})
	return rt
}

// TotalDropped sums ring-full drops across all nodes.
func (t *RackTrace) TotalDropped() uint64 {
	var d uint64
	for _, ns := range t.Nodes {
		d += ns.Dropped
	}
	return d
}

// TotalSkipped sums slots rejected as unstable or corrupt.
func (t *RackTrace) TotalSkipped() int {
	var s int
	for _, ns := range t.Nodes {
		s += ns.Skipped
	}
	return s
}

// Count returns how many events survived the merge.
func (t *RackTrace) Count() int { return len(t.Events) }

// TimelineTail renders only the last 256 events — the moments before a
// failure, which is what post-mortems read first.
func (t *RackTrace) TimelineTail() string {
	evs := t.Events[max(0, len(t.Events)-256):]
	var b strings.Builder
	fmt.Fprintf(&b, "rack trace: %d/%d events, %d nodes, dropped=%d skipped=%d\n",
		len(evs), len(t.Events), len(t.Nodes), t.TotalDropped(), t.TotalSkipped())
	if len(evs) == 0 {
		return b.String()
	}
	t0 := t.Events[0].TS
	for _, e := range evs {
		fmt.Fprintf(&b, "  +%-10s n%d %-22s %-5s arg0=%#x arg1=%d\n",
			VNS(e.TS-t0), e.Node, e.Name(), e.Flags, e.Arg0, e.Arg1)
	}
	return b.String()
}

// chromeEvent is one Chrome trace_event record. ts/dur are microseconds.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Ph    string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

// ChromeJSON renders the merged trace in Chrome trace_event format
// (load into chrome://tracing or ui.perfetto.dev). Nodes map to pids,
// subsystems to tids; Begin/End pairs on the same (node, subsystem,
// arg0) key become complete "X" spans, everything else an instant.
func (t *RackTrace) ChromeJSON() []byte {
	type spanKey struct {
		node uint8
		sub  Subsys
		arg0 uint64
	}
	var out []chromeEvent
	open := make(map[spanKey][]Event)
	instant := func(e Event) {
		out = append(out, chromeEvent{
			Name: e.Name(), Cat: e.Sub.String(), Ph: "i",
			TS: float64(e.TS) / 1e3, PID: int(e.Node), TID: int(e.Sub),
			Scope: "t",
			Args:  map[string]uint64{"arg0": e.Arg0, "arg1": e.Arg1, "seq": e.Seq},
		})
	}
	for _, e := range t.Events {
		k := spanKey{e.Node, e.Sub, e.Arg0}
		switch {
		case e.Flags&FlagBegin != 0:
			open[k] = append(open[k], e)
		case e.Flags&FlagEnd != 0:
			stack := open[k]
			if len(stack) == 0 {
				instant(e) // unmatched end (begin lost to crash or drop)
				continue
			}
			b := stack[len(stack)-1]
			open[k] = stack[:len(stack)-1]
			dur := float64(e.TS-b.TS) / 1e3
			out = append(out, chromeEvent{
				Name: b.Name(), Cat: b.Sub.String(), Ph: "X",
				TS: float64(b.TS) / 1e3, Dur: &dur,
				PID: int(b.Node), TID: int(b.Sub),
				Args: map[string]uint64{
					"arg0": b.Arg0, "arg1": b.Arg1,
					"end_arg1": e.Arg1, "seq": b.Seq,
				},
			})
		default:
			instant(e)
		}
	}
	// Begins whose end never happened (task in flight at snapshot, or
	// the runner crashed): surface them as instants rather than hiding.
	for _, stack := range open {
		for _, e := range stack {
			instant(e)
		}
	}
	blob, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
	if err != nil {
		// Marshal of plain structs and uint64 maps cannot fail; keep the
		// signature error-free for callers writing artifacts.
		return []byte(`{"traceEvents":[]}`)
	}
	return blob
}
