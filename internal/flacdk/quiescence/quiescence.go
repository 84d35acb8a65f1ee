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
// g0+1; an advancer that scanned the slot before the store loaded its
// epoch e <= g0 before that, and its CAS lands at most at g0+1 too, after
// which every other such CAS fails. Everything the reader can reach was
// still linked when its store landed, so it is retired (stamped with an
// epoch loaded after the unlink, see below) at an epoch >= g0 and freed
// only at >= g0+2, which the epoch cannot reach until the reader exits.
// The load / store / re-load chase classic EBR runs on entry buys liveness
// — a reader never holds back an advance it need not — and no safety.
//
// Retire makes no fabric operation either. All the argument above asks of
// a retirement's epoch is that it was loaded AFTER the unlink, so Retire
// queues the callback unstamped and the participant's next epoch load —
// TryAdvance, Collect, Barrier, a refreshing Enter — stamps everything
// queued with the value it loaded. A later stamp than the classic one
// only delays the free. Collect stamps before it looks, and a fresh stamp
// is never two epochs old, so an unstamped entry is never freed; whoever
// retires also collects, so a block waits at most one tick longer than it
// used to (with a single participant the stamp is the very same epoch).
// The cached seen is NOT a usable stamp: it may predate the unlink by any
// number of advances, and a block stamped two epochs low is freed under a
// reader that entered before it was unlinked.
//
// Liveness is kept by refreshing seen wherever the epoch is loaded anyway
// (attach, TryAdvance including its successful CAS, Collect, Barrier) and
// on every refreshEvery-th outermost Enter. A pure reader
// (an fs mount, VersionedCell.Read, a pinned checkpointer) therefore
// announces the current epoch within refreshEvery sections of any
// advance; until then it can fail an advance only while it is actually
// inside a section, exactly as a reader that entered before the advance
// does. An attached participant outside a section holds 0 and blocks
// nothing.
//
// Reservations are not sticky: leaving the word set on Exit would save
// the second atomic, but an idle participant would then stall every
// advance — and with it all reclamation, rack-wide — until its next
// section. Exit always clears.
//
// The reservation words are packed, one word per participant, in one
// contiguous block, and TryAdvance reads them all with one fresh, uncached
// bulk transfer (fabric.ReadFresh) instead of one fabric atomic per word. Participants on
// different nodes therefore share cache lines, which breaks no rule of the
// coherence contract: the words are written only by fabric atomics, which
// act on home memory and never leave a dirty line in any cache, so there
// is no write-back that could carry a neighbour's stale word home; the
// scan reads past the cache, and a line fetch reads each word atomically.
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
// Checkpointing integrates here exactly as §3.2 prescribes: a checkpointer
// participates like a reader (Pin), so versions it is copying cannot be
// reclaimed underneath it, and retired versions double as checkpoint data.
package quiescence

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"flacos/internal/fabric"
)

// refreshEvery is how many outermost Enters a participant makes between
// refreshes of its observed epoch when nothing else refreshes it.
const refreshEvery = 64

// fencedMark is the reservation word Fence leaves behind: no epoch ever
// reaches it, the scan treats it as quiescent, and the participant that
// swaps it out learns it has been fenced.
const fencedMark = ^uint64(0)

// Domain is one reclamation domain shared by up to maxParticipants
// participants across the rack.
type Domain struct {
	fab    *fabric.Fabric
	epochG fabric.GPtr
	resG   fabric.GPtr // slots packed reservation words
	slots  int
}

// NewDomain reserves the domain's epoch and reservation words. The
// reservation block takes whole lines: the scan's invalidate must never
// drop a line that holds anybody else's data.
func NewDomain(f *fabric.Fabric, maxParticipants int) *Domain {
	if maxParticipants <= 0 {
		panic("quiescence: maxParticipants must be positive")
	}
	return &Domain{
		fab:    f,
		epochG: f.Reserve(fabric.LineSize, fabric.LineSize),
		resG:   f.Reserve(fabric.AlignUp64(uint64(maxParticipants)*fabric.WordSize, fabric.LineSize), fabric.LineSize),
		slots:  maxParticipants,
	}
}

func (d *Domain) checkID(id int) {
	if id < 0 || id >= d.slots {
		panic(fmt.Sprintf("quiescence: participant id %d out of range [0,%d)", id, d.slots))
	}
}

// slotG is participant id's reservation word.
func (d *Domain) slotG(id int) fabric.GPtr { return d.resG.Add(uint64(id) * fabric.WordSize) }

// Epoch returns the current global epoch as seen by node n.
func (d *Domain) Epoch(n *fabric.Node) uint64 { return n.AtomicLoad64(d.epochG) }

// retired is one deferred reclamation. epoch is meaningful once the entry
// is stamped (Participant.stamped).
type retired struct {
	epoch uint64
	fn    func()
}

// Participant is one thread-of-execution's attachment to the domain. Each
// participant owns its reservation word exclusively; a Participant must not
// be shared between goroutines (register one per worker).
type Participant struct {
	d  *Domain
	n  *fabric.Node
	id int

	seen   uint64 // last global epoch this participant loaded (node-local)
	enters uint64 // outermost Enters, for the periodic refresh of seen
	scan   []byte // TryAdvance's copy of the reservation block
	fenced bool   // an Enter or Exit swapped the fence mark out (node-local, sticky)

	mu      sync.Mutex // guards retired and stamped (local bookkeeping)
	retired []retired
	stamped int // retired[:stamped] carry an epoch; the rest await the next epoch load
	depth   int
}

// ID returns the participant's slot in the domain (used to Fence it after
// a crash).
func (p *Participant) ID() int { return p.id }

// Participant attaches node n as participant id (0 <= id < maxParticipants).
// The reservation word starts at 0: a fence mark left for a previous holder
// of the id is not this one's.
func (d *Domain) Participant(n *fabric.Node, id int) *Participant {
	d.checkID(id)
	p := &Participant{d: d, n: n, id: id, scan: make([]byte, d.slots*fabric.WordSize)}
	n.AtomicStore64(d.slotG(id), 0)
	p.epoch()
	return p
}

// epoch loads the global epoch, refreshes seen with it and stamps every
// retirement queued since the last load. The load is made with the list
// locked, so whatever it stamps was queued — and therefore unlinked —
// before it.
func (p *Participant) epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epochLocked()
}

func (p *Participant) epochLocked() uint64 {
	p.seen = p.n.AtomicLoad64(p.d.epochG)
	for i := p.stamped; i < len(p.retired); i++ {
		p.retired[i].epoch = p.seen
	}
	p.stamped = len(p.retired)
	return p.seen
}

// Enter begins a read-side critical section. Sections nest; only the
// outermost Enter publishes a reservation, with ONE fabric atomic (two on
// every refreshEvery-th). The package comment argues why announcing the
// last observed epoch, unchecked, is safe.
func (p *Participant) Enter() {
	p.depth++
	if p.depth > 1 {
		return
	}
	p.enters++
	if p.enters%refreshEvery == 0 {
		p.epoch()
	}
	p.reserve(p.seen + 1)
}

// reserve swaps r into the participant's reservation word and latches the
// fence if what it displaced is the mark.
func (p *Participant) reserve(r uint64) {
	if p.n.Swap64(p.d.slotG(p.id), r) == fencedMark {
		p.fenced = true
	}
}

// Fenced reports whether an Enter or Exit of this participant has met the
// mark Fence leaves: the rack declared the participant dead, and it is
// not. Once true it stays true. It makes no fabric operation.
func (p *Participant) Fenced() bool { return p.fenced }

// Exit ends a read-side critical section.
func (p *Participant) Exit() {
	if p.depth == 0 {
		panic("quiescence: Exit without Enter")
	}
	p.depth--
	if p.depth == 0 {
		p.reserve(0)
	}
}

// Pin is Enter under the name the checkpoint integration uses: a pinned
// epoch guarantees versions retired at or after it survive until Unpin.
func (p *Participant) Pin() { p.Enter() }

// Unpin releases a Pin.
func (p *Participant) Unpin() { p.Exit() }

// Retire schedules fn to run once no participant can still hold a
// reference obtained before this call (i.e. two epoch advances after the
// participant's next epoch load). It touches no fabric word: the entry is
// queued unstamped and the next load stamps it (package comment).
func (p *Participant) Retire(fn func()) {
	p.mu.Lock()
	p.retired = append(p.retired, retired{fn: fn})
	p.mu.Unlock()
}

// TryAdvance attempts to advance the global epoch. It succeeds only if
// every active participant announces the current epoch. Returns whether
// the epoch advanced. Whatever the slot count it costs two fabric atomics
// (the epoch load and the CAS) and, between them, one fresh uncached read
// of the packed reservation block.
func (p *Participant) TryAdvance() bool {
	n, d := p.n, p.d
	e := p.epoch()
	n.ReadFresh(d.resG, p.scan)
	for off := 0; off < len(p.scan); off += fabric.WordSize {
		if r := binary.LittleEndian.Uint64(p.scan[off:]); r != 0 && r != e+1 && r != fencedMark {
			return false // someone reads in an epoch other than the current one
		}
	}
	if !n.CAS64(d.epochG, e, e+1) {
		return false
	}
	p.seen = e + 1
	return true
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

// Collect runs every retired callback whose grace period has elapsed and
// returns how many ran.
func (p *Participant) Collect() int {
	ready := p.takeReady()
	for _, r := range ready {
		r.fn()
	}
	return len(ready)
}

// takeReady stamps what is queued, then removes and returns every entry
// two epochs old. Load, stamp and sweep happen under one lock, so the
// sweep never meets an unstamped entry.
func (p *Participant) takeReady() []retired {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.epochLocked()
	var ready []retired
	keep := p.retired[:0]
	for _, r := range p.retired {
		if cur >= r.epoch+2 {
			ready = append(ready, r)
		} else {
			keep = append(keep, r)
		}
	}
	p.retired, p.stamped = keep, len(keep)
	return ready
}

// Barrier advances epochs until everything retired before the call is
// reclaimable, then collects. It spins while other participants hold pins,
// so it must not be called from inside a read section.
func (p *Participant) Barrier() {
	if p.depth > 0 {
		panic("quiescence: Barrier inside read section would self-deadlock")
	}
	start := p.epoch()
	for p.epoch() < start+2 {
		if !p.TryAdvance() {
			runtime.Gosched()
		}
	}
	p.Collect()
}

// PendingRetired returns how many retirements await their grace period,
// stamped or not.
func (p *Participant) PendingRetired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.retired)
}
