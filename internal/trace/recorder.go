package trace

import (
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// Config sizes the recorder.
type Config struct {
	// RingCap is each node's ring capacity in events, rounded up to a
	// power of two. Default 1<<16 (64Ki events, 4 MiB of arena per node).
	RingCap uint64
	// FabricEvents installs per-node fabric op hooks recording cache
	// misses, write-backs and fences. This is a firehose — every miss
	// becomes an event whose emission itself costs fabric traffic — so
	// it is off by default and meant for short forensic windows.
	FabricEvents bool
}

const (
	// slotBytes is one ring slot: a ds published line whose commit
	// sequence is the event's ticket + 1.
	slotBytes           = fabric.LineSize
	eventLine ds.PubTag = 0x7472616365657674 // "traceevt"

	offDropped = 0 // the per-node header line's word: events dropped ring-full
)

// Recorder owns the rack's trace arena: one header line and one event
// ring per node, all addressed by offset so no Go pointers cross nodes.
type Recorder struct {
	fab     *fabric.Fabric
	cap     uint64 // slots per node ring, power of two
	hdrG    fabric.GPtr
	ringG   fabric.GPtr
	writers []*Writer
	wall    bool // fabric charges no latency: fall back to wall clock
	epoch   time.Time
}

// New reserves the trace arena on f and returns a ready recorder. Every
// node gets a Writer immediately; emission is enabled from the start.
func New(f *fabric.Fabric, cfg Config) *Recorder {
	want := cfg.RingCap
	if want == 0 {
		want = 1 << 16
	}
	cap := uint64(1)
	for cap < want {
		cap <<= 1
	}
	nn := uint64(f.NumNodes())
	r := &Recorder{
		fab:   f,
		cap:   cap,
		hdrG:  f.Reserve(nn*fabric.LineSize, fabric.LineSize),
		ringG: f.Reserve(nn*cap*slotBytes, fabric.LineSize),
		wall:  f.Latency().Mode == fabric.LatencyOff,
		epoch: time.Now(),
	}
	r.writers = make([]*Writer, f.NumNodes())
	for i := range r.writers {
		r.writers[i] = &Writer{
			rec:  r,
			n:    f.Node(i),
			base: r.ringG.Add(uint64(i) * cap * slotBytes),
			hdr:  r.hdrG.Add(uint64(i) * fabric.LineSize),
		}
	}
	if cfg.FabricEvents {
		r.InstallFabricHooks()
	}
	return r
}

// Writer returns node's writer. Writers are created eagerly; this is a
// slice index, cheap enough for hot paths to call per event.
func (r *Recorder) Writer(node int) *Writer {
	if r == nil {
		return nil
	}
	return r.writers[node]
}

// InstallFabricHooks wires an op hook into every node that records
// misses, write-backs and fences as SubFabric events. The recorder's
// own emission traffic is elided via the writer's suppression counter —
// otherwise each emit's write-back would recurse into another emit.
func (r *Recorder) InstallFabricHooks() {
	for i := 0; i < r.fab.NumNodes(); i++ {
		w := r.writers[i]
		r.fab.Node(i).SetOpHook(func(k fabric.OpKind, arg0, arg1 uint64) {
			if w.suppress.Load() > 0 {
				return
			}
			switch k {
			case fabric.OpMiss:
				w.Emit(SubFabric, KMiss, 0, arg0, 0)
			case fabric.OpReadFresh:
				// An uncached ranged read: every line of it missed.
				w.Emit(SubFabric, KMiss, 0, arg0, arg1)
			case fabric.OpWriteBack:
				w.Emit(SubFabric, KWriteBack, 0, arg0, 0)
			case fabric.OpWriteBackRange:
				// One ranged event per maintenance burst: first written
				// line and line count, full fidelity at 1/Nth the emits.
				w.Emit(SubFabric, KWriteBackRange, 0, arg0, arg1)
			case fabric.OpFence:
				w.Emit(SubFabric, KFence, 0, 0, 0)
			}
		})
	}
}

// Writer is one node's lock-free emitter. All goroutines playing that
// node's CPUs share it; a ticket counter serializes slot claims without
// any lock, and each record is published with a single explicit
// write-back — the hot path never waits for a reader and never blocks.
type Writer struct {
	rec  *Recorder
	n    *fabric.Node
	base fabric.GPtr // this node's ring
	hdr  fabric.GPtr // this node's header line

	// reserve is node-local CPU state (a ticket counter in the node's
	// private memory), not fabric state: it does not survive a crash and
	// costs nothing to bump.
	reserve atomic.Uint64
	// suppress marks the writer as inside Emit so the fabric op hook
	// does not trace the recorder's own cache traffic.
	suppress atomic.Int32
}

func (w *Writer) now() uint64 {
	if w.rec.wall {
		return uint64(time.Since(w.rec.epoch))
	}
	return w.n.VirtualNS()
}

// Emit records one event. Nil-safe: a nil writer (tracing disabled)
// does nothing. When the ring is full — it has held cap events, and no
// collector consumes any — the event is dropped and counted, with one
// fabric atomic, instead of blocking.
// Emitting on a crashed node panics like any other fabric op; callers
// on crash-tolerant paths already absorb that panic.
func (w *Writer) Emit(sub Subsys, kind Kind, flags Flags, arg0, arg1 uint64) {
	if w == nil {
		return
	}
	t := w.reserve.Add(1) - 1
	if t >= w.rec.cap {
		w.n.Add64(w.hdr.Add(offDropped), 1)
		return
	}
	p := Encode(Event{
		TS:    w.now(),
		Node:  uint8(w.n.ID()),
		Sub:   sub,
		Kind:  kind,
		Flags: flags & flagsMask,
		Arg0:  arg0,
		Arg1:  arg1,
	})
	w.suppress.Add(1)
	defer w.suppress.Add(-1)
	eventLine.Publish(w.n, w.base.Add((t&(w.rec.cap-1))*slotBytes), t+1, p)
}

// Begin emits a span-begin event; pair with End on the same (sub, arg0).
func (w *Writer) Begin(sub Subsys, kind Kind, arg0, arg1 uint64) {
	w.Emit(sub, kind, FlagBegin, arg0, arg1)
}

// End emits a span-end event closing the most recent Begin with the
// same (sub, arg0) on this node.
func (w *Writer) End(sub Subsys, kind Kind, arg0, arg1 uint64) {
	w.Emit(sub, kind, FlagEnd, arg0, arg1)
}
