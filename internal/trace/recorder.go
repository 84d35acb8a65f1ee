package trace

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
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
	slotBytes = fabric.LineSize
	// offSeq is the slot's publication-sequence word: the LAST word of
	// the line. fabric.writeLineHome commits words in ascending order,
	// so when a reader observes the sequence at home, the payload words
	// of the same flush have already landed.
	offSeq = payloadBytes

	// Per-node header line words.
	offDropped = 0 // events dropped because the ring was full
	offTail    = 8 // collector's consumption cursor (first live ticket)
	// offClaimed is a high-watermark (ticket+1) published by the DROP
	// path only: dropped tickets never occupy a slot, so without this
	// hint a consume could not advance the tail past them and a ring
	// that filled once would stay full forever.
	offClaimed = 16
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

// Cap returns the per-node ring capacity in events.
func (r *Recorder) Cap() uint64 { return r.cap }

// Fabric returns the fabric the recorder is attached to.
func (r *Recorder) Fabric() *fabric.Fabric { return r.fab }

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

// RemoveFabricHooks uninstalls the op hooks installed above.
func (r *Recorder) RemoveFabricHooks() {
	for i := 0; i < r.fab.NumNodes(); i++ {
		r.fab.Node(i).SetOpHook(nil)
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
	reserve  atomic.Uint64
	tailSeen atomic.Uint64 // local cache of the header tail cursor
	dropped  atomic.Uint64 // local mirror of the header dropped count
	// suppress marks the writer as inside Emit so the fabric op hook
	// does not trace the recorder's own cache traffic.
	suppress atomic.Int32
}

// Node returns the node this writer emits for.
func (w *Writer) Node() *fabric.Node { return w.n }

// Dropped returns how many events this writer discarded ring-full.
func (w *Writer) Dropped() uint64 {
	if w == nil {
		return 0
	}
	return w.dropped.Load()
}

// emitTestHook, when set (tests only, before any writer runs), fires
// after the record line is composed in the node cache but before the
// write-back that publishes it — the window where a crash loses the
// event entirely rather than tearing it.
var emitTestHook func(node int, ticket uint64)

func (w *Writer) now() uint64 {
	if w.rec.wall {
		return uint64(time.Since(w.rec.epoch))
	}
	return w.n.VirtualNS()
}

// Emit records one event. Nil-safe: a nil writer (tracing disabled)
// does nothing. When the ring is full — the collector's cursor a whole
// ring behind — the event is dropped and counted instead of blocking.
// Emitting on a crashed node panics like any other fabric op; callers
// on crash-tolerant paths already absorb that panic.
func (w *Writer) Emit(sub Subsys, kind Kind, flags Flags, arg0, arg1 uint64) {
	if w == nil {
		return
	}
	t := w.reserve.Add(1) - 1
	if t >= w.tailSeen.Load()+w.rec.cap {
		// Apparently full: refresh the cursor once, then really drop.
		tail := w.n.AtomicLoad64(w.hdr.Add(offTail))
		w.tailSeen.Store(tail)
		if t >= tail+w.rec.cap {
			w.dropped.Add(1)
			w.n.Add64(w.hdr.Add(offDropped), 1)
			for { // publish the claimed high-watermark (CAS-max)
				cur := w.n.AtomicLoad64(w.hdr.Add(offClaimed))
				if t+1 <= cur || w.n.CAS64(w.hdr.Add(offClaimed), cur, t+1) {
					break
				}
			}
			return
		}
	}
	pb := Encode(Event{
		TS:    w.now(),
		Node:  uint8(w.n.ID()),
		Sub:   sub,
		Kind:  kind,
		Flags: flags & flagsMask,
		Arg0:  arg0,
		Arg1:  arg1,
	})
	var line [slotBytes]byte
	copy(line[:], pb[:])
	binary.LittleEndian.PutUint64(line[offSeq:], t+1)
	g := w.base.Add((t & (w.rec.cap - 1)) * slotBytes)
	w.suppress.Add(1)
	defer w.suppress.Add(-1)
	// One full-line store (no write-allocate fetch), then one explicit
	// write-back. The sequence word rides in the same line, last in
	// commit order, so the record becomes visible at home only after its
	// payload — and a crash right here loses the event cleanly instead
	// of publishing a torn one.
	w.n.Write(g, line[:])
	if emitTestHook != nil {
		emitTestHook(w.n.ID(), t)
	}
	w.n.WriteBackRange(g, slotBytes)
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
