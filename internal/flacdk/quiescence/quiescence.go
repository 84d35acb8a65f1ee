// Package quiescence implements FlacDK's quiescence-based synchronization
// (paper §3.2): RCU-style epochs over the non-coherent fabric, with
// multi-version objects instead of in-place modification.
//
// The paper notes this method is particularly effective on non-cache-
// coherent shared memory because it converts the problem of tracking stale
// cache lines into tracking parallel references (the "bounded incoherence"
// model): an object version is immutable once published, readers always
// invalidate its lines before reading, and a version's memory is reused
// only after a grace period proves no reader can still hold a reference.
//
// Epoch protocol (2-epoch EBR, fabric edition):
//   - a global epoch word lives in global memory, advanced with CAS;
//   - each participant has a reservation word: 0 when quiescent, e+1 while
//     inside a read section, where e is a global epoch the participant has
//     OBSERVED — not necessarily the current one (and one reserved value,
//     the fence mark, described further down);
//   - TryAdvance moves the epoch e -> e+1 only if every non-zero
//     reservation it scans equals e+1, and memory retired in epoch e is
//     reclaimed once the global epoch reaches e+2.
//
// A read section costs two fabric atomics: one swap of seen+1 into the
// word on the outermost Enter, one swap of 0 on the outermost Exit. seen is
// the participant's node-local copy of the last global epoch it loaded;
// Enter does not load the epoch and does not re-check it after the swap.
// (They are swaps, not stores, for the sake of what they return: the fence
// mark, below. A swap costs what a store costs.)
//
// Why that is safe. A reservation announcing ANY epoch other than the
// current one, stale or not, fails every advance whose scan reads it. So
// from the instant a reader's store is home, with the global epoch at g0,
// the epoch can move at most once more: an advance that scans the slot
// afterwards passes only as g0 -> g0+1 and only if the reservation is
// g0+1; an advancer that scanned the slot before the store fetched the
// epoch line before the reservation lines of the same read, so it read
// e <= g0 and its CAS lands at most at g0+1 too, after which every other
// such CAS fails. Everything the reader can reach was still linked when
// its store landed, so it is retired (stamped with an epoch read after
// the unlink, see below) at an epoch >= g0 and freed only at >= g0+2,
// which the epoch cannot reach until the reader exits.
// The load / store / re-load chase classic EBR runs on entry buys liveness
// — a reader never holds back an advance it need not — and no safety.
//
// Retiring makes no fabric operation either. All the argument above asks
// of a retirement's epoch is that it was read AFTER the unlink, so
// RetireTo queues its (freer, offset) pair unstamped and the participant's
// next epoch read — Tick, TryAdvance, Collect, Barrier, a refreshing
// Enter — stamps everything queued with the value it read. A later stamp
// than the classic one only delays the free. Collect stamps before it looks,
// and a fresh stamp is never two epochs old, so an unstamped entry is
// never freed; whoever retires also collects, so a block waits at most one
// tick longer than it used to (with a single participant the stamp is the
// very same epoch). The cached seen is NOT a usable stamp: it may predate
// the unlink by any number of advances, and a block stamped two epochs low
// is freed under a reader that entered before it was unlinked.
//
// Reads are made in order under the participant's lock, so stamps never
// decrease along the queue and what a Collect may free is always a prefix
// of it. Collect moves that prefix into a buffer it owns until the frees
// are done, frees it in retirement order outside the lock, and hands the
// buffer back for the next Collect. A retirement is a value (an interface
// and an offset), not a closure, so retiring and collecting allocate
// nothing once the queue and the buffer have grown to their working size.
//
// Liveness is kept by refreshing seen wherever the epoch is read anyway
// (attach, an advance and its CAS, Collect, Barrier) and by the first
// outermost Enter after refreshEvery sections without such a read, which a
// participant that ticks that often never pays. A pure reader (an fs
// mount, VersionedCell.Read) announces the current epoch within about
// refreshEvery sections of any advance; until then it can fail an advance
// only while it is inside a section, exactly as a reader that entered
// before the advance does. An idle participant holds 0 and blocks nothing.
//
// Reservations are not sticky: leaving the word set on Exit would save
// the second atomic, but an idle participant would then stall every
// advance — and with it all reclamation, rack-wide — until its next
// section. Exit always clears.
//
// The domain is one block: the epoch line, then the reservation words
// packed one per participant. An advance reads it with one fresh, uncached
// transfer (fabric.ReadFresh), which fetches lines in ascending order, so
// the epoch is read before any reservation, as the argument above needs: a
// maintenance step costs one fresh read of the epoch and reservation lines
// and one CAS, whatever the participant count. Participants on different
// nodes share lines, which the coherence contract allows: every word is
// written only by fabric atomics, which act on home memory and leave no
// dirty line in any cache to carry a neighbour's stale word home.
//
// Fencing rides on the same word. Fence, which recovery runs against a
// participant the rack has declared dead, does not clear the reservation
// to 0 but stores a reserved mark there; the scan counts the mark as
// quiescent, so a participant that died inside a section stalls nothing.
// A participant that was NOT dead — a zombie — meets the mark in the value
// its next outermost Enter or Exit swaps out, and latches Fenced() from
// then on, node-locally and for good. Learning that it has been cut off
// therefore costs it no fabric operation of its own: the atomic that
// carries the answer is one the section makes anyway. Enter still leaves
// an ordinary reservation behind, fenced or not, so whatever a zombie reads
// stays protected from reclamation like any reader's; it is the layer above
// (redis.View) that refuses a fenced participant's writes. What the fence
// guarantees is exactly what a check before every write guaranteed: a
// section that begins after Fence returns knows, one already open when
// Fence lands does not until its Exit.
//
// One participant may serve several goroutines of its node (an fs mount
// does). Their sections share the one reservation word the way nested
// sections do: the first to enter publishes, the last to leave clears, and
// the count of open sections and the swap that goes with its 0 <-> 1 edge
// change under one lock, so an Exit's clear can never land behind a
// concurrent Enter's publish and leave a reader unprotected. A reader that
// enters while another holds the word is covered by a reservation
// announced no later than its own entry, which is all the argument above
// needs. A single goroutine makes exactly the fabric operations it made
// before; it only takes an uncontended lock.
//
// Checkpointing integrates here exactly as §3.2 prescribes: a checkpointer
// participates like a reader (Pin), so versions it is copying cannot be
// reclaimed underneath it, and retired versions double as checkpoint data.
package quiescence

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
)

// refreshEvery is how many outermost Enters a participant makes after its
// last read of the epoch before the next Enter reads it again.
const refreshEvery = 64

// fencedMark is the reservation word Fence leaves behind: no epoch ever
// reaches it, the scan treats it as quiescent, and the participant that
// swaps it out learns it has been fenced.
const fencedMark = ^uint64(0)

// Domain is one reclamation domain shared by up to maxParticipants
// participants across the rack.
type Domain struct {
	epochG fabric.GPtr // the epoch line, then slots packed reservation words
	slots  int
}

// NewDomain reserves the domain's block: the epoch line, then the
// reservation words. The block takes whole lines: the scan's invalidate
// must never drop a line that holds anybody else's data.
func NewDomain(f *fabric.Fabric, maxParticipants int) *Domain {
	if maxParticipants <= 0 {
		panic("quiescence: maxParticipants must be positive")
	}
	return &Domain{
		epochG: f.Reserve(fabric.LineSize+fabric.AlignUp64(uint64(maxParticipants)*fabric.WordSize, fabric.LineSize), fabric.LineSize),
		slots:  maxParticipants,
	}
}

func (d *Domain) checkID(id int) {
	if id < 0 || id >= d.slots {
		panic(fmt.Sprintf("quiescence: participant id %d out of range [0,%d)", id, d.slots))
	}
}

// slotG is participant id's reservation word.
func (d *Domain) slotG(id int) fabric.GPtr {
	return d.epochG.Add(fabric.LineSize + uint64(id)*fabric.WordSize)
}

// Freer releases a retired offset once its grace period has passed.
// flacdk/alloc's node allocators and this package's Allocator satisfy it.
type Freer interface {
	Free(off fabric.GPtr)
}

// retired is one deferred reclamation: f.Free(off) once two epochs have
// passed. epoch is meaningful once the entry is stamped
// (Participant.stamped).
type retired struct {
	epoch uint64
	f     Freer
	off   fabric.GPtr
}

// Participant is one node's attachment to the domain under one
// reservation word. It is safe for concurrent use by the node's
// goroutines (package comment); a worker that wants sections of its own
// registers a participant of its own.
type Participant struct {
	d  *Domain
	n  *fabric.Node
	id int

	fenced atomic.Bool // an Enter or Exit swapped the fence mark out (node-local, sticky)

	// mu guards everything below: node-local bookkeeping, and the swaps of
	// the reservation word, which are made with it held.
	mu       sync.Mutex
	depth    int    // open sections, nested or on concurrent goroutines
	seen     uint64 // last global epoch this participant read (node-local)
	sections int    // outermost Enters since seen was read, for the periodic refresh
	scan     []byte // an advance's copy of the domain block
	retired  []retired
	stamped  int       // retired[:stamped] carry an epoch; the rest await the next epoch read
	ready    []retired // the sweep buffer; nil while a Collect or Tick owns it
}

// ID returns the participant's slot in the domain (used to Fence it after
// a crash).
func (p *Participant) ID() int { return p.id }

// Participant attaches node n as participant id (0 <= id < maxParticipants).
// The reservation word starts at 0: a fence mark left for a previous holder
// of the id is not this one's.
func (d *Domain) Participant(n *fabric.Node, id int) *Participant {
	d.checkID(id)
	p := &Participant{d: d, n: n, id: id, scan: make([]byte, fabric.LineSize+d.slots*fabric.WordSize)}
	n.AtomicStore64(d.slotG(id), 0)
	p.epoch()
	return p
}

// epoch loads the global epoch and observes it.
func (p *Participant) epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epochLocked()
}

func (p *Participant) epochLocked() uint64 { return p.observe(p.n.AtomicLoad64(p.d.epochG)) }

// observe takes e, just read from the global epoch word, as seen and
// stamps every retirement queued since the last read with it. Called with
// p.mu held, so whatever it stamps was queued — and therefore unlinked —
// before the read.
func (p *Participant) observe(e uint64) uint64 {
	p.seen, p.sections = e, 0
	for i := p.stamped; i < len(p.retired); i++ {
		p.retired[i].epoch = e
	}
	p.stamped = len(p.retired)
	return e
}

// Enter begins a read-side critical section. Sections nest, and sections
// of concurrent goroutines share the word; only the outermost Enter
// publishes a reservation, with ONE fabric atomic (two on the first after
// refreshEvery sections without an epoch read). The package comment
// argues why announcing the last observed epoch, unchecked, is safe.
func (p *Participant) Enter() {
	p.mu.Lock()
	defer p.mu.Unlock() // the node may crash under the swap
	p.depth++
	if p.depth > 1 {
		return
	}
	if p.sections >= refreshEvery {
		p.epochLocked()
	}
	p.sections++
	p.reserve(p.seen + 1)
}

// reserve swaps r into the participant's reservation word and latches the
// fence if what it displaced is the mark. Called with p.mu held.
func (p *Participant) reserve(r uint64) {
	if p.n.Swap64(p.d.slotG(p.id), r) == fencedMark {
		p.fenced.Store(true)
	}
}

// Fenced reports whether an Enter or Exit of this participant has met the
// mark Fence leaves: the rack declared the participant dead, and it is
// not. Once true it stays true. It makes no fabric operation.
func (p *Participant) Fenced() bool { return p.fenced.Load() }

// Exit ends a read-side critical section.
func (p *Participant) Exit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.depth == 0 {
		panic("quiescence: Exit without Enter")
	}
	p.depth--
	if p.depth == 0 {
		p.reserve(0)
	}
}

// RetireTo schedules f.Free(off) for once no participant can still hold a
// reference obtained before this call (i.e. two epoch advances after the
// participant's next epoch read). It touches no fabric word and, once the
// queue has grown, allocates nothing: the entry is queued unstamped and
// the next read stamps it (package comment).
func (p *Participant) RetireTo(f Freer, off fabric.GPtr) {
	p.mu.Lock()
	p.retired = append(p.retired, retired{f: f, off: off})
	p.mu.Unlock()
}

// Retire schedules fn like RetireTo, for a retirement that frees no
// offset. Every freeing caller uses RetireTo: a closure is an allocation
// per call.
func (p *Participant) Retire(fn func()) { p.RetireTo(funcFreer(fn), fabric.Nil) }

// funcFreer adapts a callback to Freer; the offset is ignored.
type funcFreer func()

func (fn funcFreer) Free(fabric.GPtr) { fn() }

// TryAdvance attempts to advance the global epoch. It succeeds only if
// every active participant announces the current epoch. Returns whether
// the epoch advanced. It costs one fresh read of the domain block and, if
// every reservation allows it, one CAS.
func (p *Participant) TryAdvance() bool {
	_, ok := p.advance()
	return ok
}

// advance is advanceLocked under p.mu.
func (p *Participant) advance() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.advanceLocked()
}

// advanceLocked is TryAdvance with p.mu held, also returning the epoch it
// read or, if its CAS landed, the one it installed.
func (p *Participant) advanceLocked() (uint64, bool) {
	p.n.ReadFresh(p.d.epochG, p.scan)
	e := p.observe(binary.LittleEndian.Uint64(p.scan))
	for off := fabric.LineSize; off < len(p.scan); off += fabric.WordSize {
		if r := binary.LittleEndian.Uint64(p.scan[off:]); r != 0 && r != e+1 && r != fencedMark {
			return e, false // someone reads in an epoch other than the current one
		}
	}
	if !p.n.CAS64(p.d.epochG, e, e+1) {
		return e, false
	}
	p.seen = e + 1
	return e + 1, true
}

// Fence cuts participant id off on behalf of a node the rack has declared
// dead, acting from live node n: it replaces the reservation word with the
// fence mark. A participant that died inside a read section leaves its
// reservation pinned forever, which would stall epoch advance (and with it
// all reclamation) rack-wide; the mark reads as quiescent, exactly like an
// expired lease. If the participant is in fact alive, the section it has
// open loses its protection, and its next Enter or Exit finds the mark and
// latches Fenced(). The holder should attach a fresh participant.
func (d *Domain) Fence(n *fabric.Node, id int) {
	d.checkID(id)
	n.AtomicStore64(d.slotG(id), fencedMark)
}

// Collect stamps what is queued, frees every retirement whose grace period
// has elapsed, in retirement order, and returns how many it freed. It
// loads the epoch to do so; Tick sweeps with the epoch its advance read.
func (p *Participant) Collect() int { return p.free(p.due(false)) }

// Tick is one maintenance step: TryAdvance, then Collect by the epoch the
// advance read or installed — a value the epoch held after every queued
// unlink. It costs what TryAdvance costs and nothing more.
func (p *Participant) Tick() { p.free(p.due(true)) }

// due reads the epoch (by an advance or a load), stamps what is queued and
// takes the prefix whose grace period has elapsed, all under one hold of
// the lock; the entries taken are the caller's alone, so concurrent
// collectors never free one entry twice.
func (p *Participant) due(advance bool) []retired {
	p.mu.Lock()
	defer p.mu.Unlock()
	var cur uint64
	if advance {
		cur, _ = p.advanceLocked()
	} else {
		cur = p.epochLocked()
	}
	k := 0
	for k < len(p.retired) && cur >= p.retired[k].epoch+2 {
		k++
	}
	if k == 0 {
		return nil
	}
	ready := append(p.ready[:0], p.retired[:k]...)
	p.ready = nil // ours until the frees are done; a concurrent collector grows its own
	p.retired = p.retired[:copy(p.retired, p.retired[k:])]
	p.stamped = len(p.retired)
	return ready
}

// free frees what due took, outside the lock, hands the buffer back for
// the next sweep and returns how many it freed.
func (p *Participant) free(ready []retired) int {
	for _, r := range ready {
		r.f.Free(r.off)
	}
	if ready != nil {
		p.mu.Lock()
		p.ready = ready
		p.mu.Unlock()
	}
	return len(ready)
}

// Barrier advances epochs until everything retired before the call is
// reclaimable, then collects. It spins while other participants hold pins,
// so it must not be called while a section of this participant is open.
// A poll is one advance, judged by the epoch it read or installed.
func (p *Participant) Barrier() {
	p.mu.Lock()
	open := p.depth > 0
	p.mu.Unlock()
	if open {
		panic("quiescence: Barrier inside read section would self-deadlock")
	}
	start := p.epoch()
	p.n.Await(fabric.Wait{Site: "quiescence.Barrier", Word: p.d.epochG, Arg: start + 2}, func() (uint64, bool) {
		for {
			e, ok := p.advance()
			if e >= start+2 {
				return e, true
			}
			if !ok {
				return e, false
			}
		}
	})
	p.Collect()
}

// PendingRetired returns how many retirements await their grace period,
// stamped or not.
func (p *Participant) PendingRetired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.retired)
}
