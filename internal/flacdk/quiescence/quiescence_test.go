package quiescence

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"flacos/internal/fabric"
)

func rack(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: nodes})
}

// bumpAlloc is a test allocator: bump allocation, and Free poisons the
// region at home so any reader still holding a reference sees garbage —
// which the VersionedCell tests detect as a torn read.
type bumpAlloc struct {
	mu   sync.Mutex
	f    *fabric.Fabric
	free []fabric.GPtr
	size uint64
}

func newBumpAlloc(f *fabric.Fabric, size uint64) *bumpAlloc {
	return &bumpAlloc{f: f, size: size}
}

func (a *bumpAlloc) Alloc(size uint64) fabric.GPtr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) > 0 {
		g := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		zero := make([]byte, a.size)
		a.f.WriteAtHome(g, zero)
		return g
	}
	return a.f.Reserve(fabric.AlignUp64(size, fabric.LineSize), fabric.LineSize)
}

func (a *bumpAlloc) Free(g fabric.GPtr) {
	poison := bytes.Repeat([]byte{0xFF}, int(a.size))
	a.f.WriteAtHome(g, poison)
	a.mu.Lock()
	a.free = append(a.free, g)
	a.mu.Unlock()
}

func TestEpochAdvanceBlockedByReader(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	reader := d.Participant(f.Node(0), 0)
	writer := d.Participant(f.Node(1), 1)

	reader.Enter()
	if writer.TryAdvance() {
		// The reader pinned the CURRENT epoch, so one advance is allowed —
		// but a second must block until the reader exits.
		if writer.TryAdvance() {
			t.Fatal("epoch advanced twice past an active reader")
		}
	}
	reader.Exit()
	if !writer.TryAdvance() {
		t.Fatal("epoch should advance once reader exited")
	}
}

func TestRetireCollectGracePeriod(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	p := d.Participant(f.Node(0), 0)

	ran := false
	p.Retire(func() { ran = true })
	if p.Collect() != 0 || ran {
		t.Fatal("retired callback ran before grace period")
	}
	if !p.TryAdvance() || !p.TryAdvance() {
		t.Fatal("advance failed with no readers")
	}
	if p.Collect() != 1 || !ran {
		t.Fatal("retired callback did not run after two advances")
	}
	if p.PendingRetired() != 0 {
		t.Fatal("pending list not drained")
	}
}

func TestBarrierReclaimsEverything(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	p := d.Participant(f.Node(0), 0)
	count := 0
	for i := 0; i < 5; i++ {
		p.Retire(func() { count++ })
	}
	p.Barrier()
	if count != 5 {
		t.Fatalf("Barrier reclaimed %d of 5", count)
	}
}

func TestNestedSections(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	p := d.Participant(f.Node(0), 0)
	other := d.Participant(f.Node(1), 1)

	p.Enter()
	p.Enter()
	p.Exit()
	// Still inside: two advances must not both succeed.
	other.TryAdvance()
	if other.TryAdvance() {
		t.Fatal("epoch advanced twice inside nested section")
	}
	p.Exit()
	if !other.TryAdvance() {
		t.Fatal("advance should succeed after outermost Exit")
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	f := rack(t, 1)
	p := NewDomain(f, 1).Participant(f.Node(0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Exit without Enter should panic")
		}
	}()
	p.Exit()
}

func TestBarrierInsideSectionPanics(t *testing.T) {
	f := rack(t, 1)
	p := NewDomain(f, 1).Participant(f.Node(0), 0)
	p.Enter()
	defer func() {
		if recover() == nil {
			t.Fatal("Barrier inside section should panic")
		}
	}()
	p.Barrier()
}

func TestParticipantIDBounds(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range participant should panic")
		}
	}()
	d.Participant(f.Node(0), 1)
}

func TestVersionedCellBasicReadWrite(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	a := newBumpAlloc(f, 64)
	w := d.Participant(f.Node(0), 0)
	r := d.Participant(f.Node(1), 1)

	init := bytes.Repeat([]byte{1}, 64)
	c := NewVersionedCell(f, f.Node(0), a, 64, init)
	buf := make([]byte, 64)
	c.Read(r, buf)
	if !bytes.Equal(buf, init) {
		t.Fatalf("initial read = %v", buf[:4])
	}
	c.Write(w, a, bytes.Repeat([]byte{2}, 64))
	c.Read(r, buf)
	if buf[0] != 2 || buf[63] != 2 {
		t.Fatalf("read after write = %v...%v", buf[0], buf[63])
	}
}

// TestVersionedCellNoUseAfterFree hammers a cell with a writer on one node
// and readers on another. Versions hold a counter value replicated across
// the payload; a reader observing a mixed payload (torn version) or the
// 0xFF poison means reclamation freed a version that a reader could still
// see — the exact bug quiescence exists to prevent.
func TestVersionedCellNoUseAfterFree(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	const vsize = 64
	a := newBumpAlloc(f, vsize)
	w := d.Participant(f.Node(0), 0)
	r := d.Participant(f.Node(1), 1)

	mk := func(v uint64) []byte {
		b := make([]byte, vsize)
		for i := 0; i < vsize; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], v)
		}
		return b
	}
	c := NewVersionedCell(f, f.Node(0), a, vsize, mk(0))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(1); v <= 400; v++ {
			c.Write(w, a, mk(v))
			w.TryAdvance()
			w.Collect()
		}
	}()
	buf := make([]byte, vsize)
	for {
		select {
		case <-done:
			return
		default:
		}
		c.Read(r, buf)
		first := binary.LittleEndian.Uint64(buf)
		if first == ^uint64(0) {
			t.Fatal("reader saw poisoned (freed) version")
		}
		for i := 8; i < vsize; i += 8 {
			if v := binary.LittleEndian.Uint64(buf[i:]); v != first {
				t.Fatalf("torn version: word0=%d word%d=%d", first, i/8, v)
			}
		}
	}
}

func TestVersionedCellUpdateContention(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	a := newBumpAlloc(f, 64)
	p0 := d.Participant(f.Node(0), 0)
	p1 := d.Participant(f.Node(1), 1)
	c := NewVersionedCell(f, f.Node(0), a, 64, make([]byte, 64))

	incr := func(p *Participant, times int) {
		for i := 0; i < times; i++ {
			c.Update(p, a, func(cur []byte) {
				v := binary.LittleEndian.Uint64(cur)
				binary.LittleEndian.PutUint64(cur, v+1)
			})
			p.TryAdvance()
			p.Collect()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); incr(p0, 200) }()
	go func() { defer wg.Done(); incr(p1, 200) }()
	wg.Wait()

	buf := make([]byte, 64)
	c.Read(p0, buf)
	if got := binary.LittleEndian.Uint64(buf); got != 400 {
		t.Fatalf("counter = %d, want 400 (lost update in multi-version CAS)", got)
	}
}

func TestWriteOversizedPanics(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	a := newBumpAlloc(f, 64)
	p := d.Participant(f.Node(0), 0)
	c := NewVersionedCell(f, f.Node(0), a, 64, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Write should panic")
		}
	}()
	c.Write(p, a, make([]byte, 65))
}

// TestBudgetFabricOps pins what the read side costs in fabric operations,
// from Node.Stats() deltas under the default latency model: an outermost
// Enter is one atomic (two on every refreshEvery-th), nested Enter/Exit
// are free, Exit is one atomic, Fenced and Retire are nothing at all, and
// TryAdvance is two atomics and ONE fresh read of ceil(slots/8) lines,
// whatever the slot count, that leaves nothing in the cache.
func TestBudgetFabricOps(t *testing.T) {
	lat := fabric.DefaultLatency()
	for _, slots := range []int{1, 8, 9, 128, 130} {
		f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2, Latency: lat})
		n := f.Node(0)
		p := NewDomain(f, slots).Participant(n, slots-1)
		atomicNS := uint64(lat.AtomicNS + n.Hops()*lat.HopNS)
		missNS := func(lines int) uint64 {
			return uint64(lat.GlobalNS + n.Hops()*lat.HopNS + (lines-1)*lat.PerLineNS)
		}
		delta := func(fn func()) fabric.NodeStatsSnapshot {
			before := n.Stats()
			fn()
			return n.Stats().Delta(before)
		}
		for i := 1; i <= 2*refreshEvery+2; i++ {
			want := uint64(1)
			if i%refreshEvery == 0 {
				want = 2
			}
			if d := delta(p.Enter); d.Atomics != want || d.VirtualNS != want*atomicNS {
				t.Fatalf("slots=%d: outermost Enter #%d: %d atomics, %d sim_ns; want %d atomics and nothing else", slots, i, d.Atomics, d.VirtualNS, want)
			}
			if d := delta(func() { p.Enter(); p.Exit() }); d != (fabric.NodeStatsSnapshot{}) {
				t.Fatalf("slots=%d: nested Enter/Exit touched the fabric: %+v", slots, d)
			}
			if d := delta(p.Exit); d.Atomics != 1 || d.VirtualNS != atomicNS {
				t.Fatalf("slots=%d: outermost Exit: %d atomics, %d sim_ns; want 1 atomic and nothing else", slots, d.Atomics, d.VirtualNS)
			}
		}
		if d := delta(func() { p.Retire(func() {}); p.Fenced() }); d != (fabric.NodeStatsSnapshot{}) {
			t.Fatalf("slots=%d: Retire or Fenced touched the fabric: %+v", slots, d)
		}
		lines := (slots + 7) / 8
		for round := 0; round < 3; round++ {
			d := delta(func() {
				if !p.TryAdvance() {
					t.Fatalf("slots=%d: advance failed with no reader", slots)
				}
			})
			wantNS := 2*atomicNS + uint64(lat.LocalNS) + missNS(lines)
			if d.Atomics != 2 || d.Loads != 1 || d.Misses != uint64(lines) || d.Hits != 0 || d.VirtualNS != wantNS {
				t.Fatalf("slots=%d: TryAdvance: %d atomics, %d reads, %d line fetches, %d hits, %d sim_ns; want 2, 1, %d, 0, %d",
					slots, d.Atomics, d.Loads, d.Misses, d.Hits, d.VirtualNS, lines, wantNS)
			}
			if res := n.CacheResidentLines(); res != 0 {
				t.Fatalf("slots=%d: TryAdvance left %d lines resident, want 0", slots, res)
			}
		}
	}
}

// staleBy attaches a participant and then moves the global epoch on by k
// behind its back, so its observed epoch is k advances stale.
func staleBy(t *testing.T, d *Domain, n *fabric.Node, id int, adv *Participant, k int) *Participant {
	t.Helper()
	p := d.Participant(n, id)
	for i := 0; i < k; i++ {
		if !adv.TryAdvance() {
			t.Fatal("advance failed with every participant idle")
		}
	}
	return p
}

// TestEpochStaleReaderIsSafe scripts the safety argument of the package
// comment: a reader whose observed epoch is two advances stale enters
// without looking at the epoch; from then on nothing the writer unlinks
// is freed and every advance fails until the reader exits, after which
// two advances free it.
func TestEpochStaleReaderIsSafe(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 4)
	writer := d.Participant(f.Node(1), 1)
	reader := staleBy(t, d, f.Node(0), 0, writer, 2)

	reader.Enter()
	freed := false
	writer.Retire(func() { freed = true }) // unlinked after the reader's store
	for i := 0; i < 10; i++ {
		if writer.TryAdvance() {
			t.Fatalf("attempt %d: epoch advanced past a reader announcing a stale epoch", i)
		}
		if got := writer.Collect(); got != 0 || freed {
			t.Fatalf("attempt %d: block freed under an active reader", i)
		}
	}
	reader.Exit()
	if !writer.TryAdvance() || !writer.TryAdvance() {
		t.Fatal("advance failed after the reader exited")
	}
	if got := writer.Collect(); got != 1 || !freed {
		t.Fatalf("Collect = %d, freed = %v after two advances; want 1, true", got, freed)
	}
}

// TestEpochInFlightAdvancerMovesOnce covers the one advance a reader
// cannot stop: the advancer has already scanned the reader's slot (seen 0)
// when the reader enters, and its CAS lands. The epoch has then moved once
// since the reader's store — and must not move again until the reader
// exits, whether the reader announced the current epoch or a stale one.
func TestEpochInFlightAdvancerMovesOnce(t *testing.T) {
	for _, stale := range []int{0, 2} {
		f := rack(t, 2)
		d := NewDomain(f, 4)
		an := f.Node(1)
		writer := d.Participant(an, 1)
		reader := staleBy(t, d, f.Node(0), 0, writer, stale)

		entered := false
		an.SetOpHook(func(k fabric.OpKind, arg0, _ uint64) {
			if k == fabric.OpReadFresh && arg0 == d.resG.Line() && !entered {
				entered = true
				reader.Enter() // after the scan fetched the line, before the CAS
			}
		})
		advanced := writer.TryAdvance()
		an.SetOpHook(nil)
		if !entered || !advanced {
			t.Fatalf("stale=%d: entered=%v advanced=%v; the script needs the in-flight CAS to land", stale, entered, advanced)
		}

		freed := false
		writer.Retire(func() { freed = true })
		for i := 0; i < 10; i++ {
			if writer.TryAdvance() {
				t.Fatalf("stale=%d: a second advance followed the in-flight one under an active reader", stale)
			}
			if writer.Collect() != 0 || freed {
				t.Fatalf("stale=%d: block freed under an active reader", stale)
			}
		}
		reader.Exit()
		writer.Barrier()
		if !freed {
			t.Fatalf("stale=%d: block never freed after the reader exited", stale)
		}
	}
}

// TestBarrierBesidePureReader is the liveness half: a participant that
// only ever enters and exits (so nothing but the periodic refresh renews
// its observed epoch) must not keep a writer's Barrier from terminating.
func TestBarrierBesidePureReader(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	writer := d.Participant(f.Node(0), 0)
	reader := d.Participant(f.Node(1), 1)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			reader.Enter()
			reader.Exit()
		}
	}()
	for i := 0; i < 50; i++ {
		ran := false
		writer.Retire(func() { ran = true })
		writer.Barrier()
		if !ran {
			t.Fatalf("Barrier %d returned without reclaiming", i)
		}
	}
	close(stop)
	<-done
}

// TestEpochIdleParticipantNeverBlocks: an attached participant outside a
// section holds a zero reservation however stale its observed epoch is.
func TestEpochIdleParticipantNeverBlocks(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	writer := d.Participant(f.Node(0), 0)
	idle := d.Participant(f.Node(1), 1)
	idle.Enter()
	idle.Exit()
	for i := 0; i < 5; i++ {
		if !writer.TryAdvance() {
			t.Fatalf("advance %d blocked by an idle participant", i)
		}
	}
}

// TestEpochFenceUnblocksDeadReader: a participant that dies inside a
// section pins the epoch until a survivor fences its slot.
func TestEpochFenceUnblocksDeadReader(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	writer := d.Participant(f.Node(0), 0)
	dead := staleBy(t, d, f.Node(1), 1, writer, 1)
	dead.Enter()
	f.Node(1).Crash()
	if writer.TryAdvance() {
		t.Fatal("epoch advanced past a dead in-section participant before the fence")
	}
	d.Fence(f.Node(0), dead.ID())
	if !writer.TryAdvance() || !writer.TryAdvance() {
		t.Fatal("advance still blocked after Fence")
	}
}

// TestFenceOutsideSection: a live participant fenced while it is outside a
// section learns it from the swap of its NEXT outermost Enter — no fabric
// operation of its own — and stays fenced for good, while its sections go
// on holding ordinary reservations: what a fenced reader can reach is not
// reclaimed under it.
func TestFenceOutsideSection(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	d := NewDomain(f, 2)
	writer := d.Participant(f.Node(0), 0)
	zn := f.Node(1)
	zombie := d.Participant(zn, 1)
	zombie.Enter()
	zombie.Exit()
	if zombie.Fenced() {
		t.Fatal("fenced before any Fence")
	}
	d.Fence(f.Node(0), zombie.ID())
	if zombie.Fenced() {
		t.Fatal("Fenced() before the participant has touched its word: it is node-local")
	}
	if !writer.TryAdvance() {
		t.Fatal("the fence mark of an idle participant blocked an advance")
	}

	before := zn.Stats()
	zombie.Enter()
	if d := zn.Stats().Delta(before); d.Atomics != 1 {
		t.Fatalf("the Enter that met the mark cost %d atomics, want the usual 1", d.Atomics)
	}
	if !zombie.Fenced() {
		t.Fatal("Enter swapped the mark out and did not latch")
	}
	// The section is a real one.
	freed := false
	writer.Retire(func() { freed = true })
	for i := 0; i < 4; i++ {
		writer.TryAdvance()
		writer.Collect()
	}
	if freed {
		t.Fatal("a block retired while the fenced participant was inside a section was freed under it")
	}
	if writer.TryAdvance() {
		t.Fatal("epoch moved on past a fenced participant's open section")
	}
	zombie.Exit()
	writer.Barrier()
	if !freed {
		t.Fatal("block not freed after the fenced participant left its section")
	}
	for i := 0; i < 3; i++ { // the mark is gone from the word; the latch is not
		zombie.Enter()
		zombie.Exit()
		if !zombie.Fenced() {
			t.Fatalf("section %d after the fence: no longer fenced", i)
		}
	}
}

// TestFenceInsideSection: a fence that lands on an open section takes its
// reservation away (the participant is presumed dead), the participant
// finds out at its Exit, and every later section starts fenced.
func TestFenceInsideSection(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	writer := d.Participant(f.Node(0), 0)
	zombie := d.Participant(f.Node(1), 1)
	zombie.Enter()
	zombie.Enter() // nested: only the outermost pair touches the word
	if writer.TryAdvance() && writer.TryAdvance() {
		t.Fatal("two advances past an open section")
	}
	d.Fence(f.Node(0), zombie.ID())
	if !writer.TryAdvance() || !writer.TryAdvance() {
		t.Fatal("advance still blocked after Fence")
	}
	zombie.Exit()
	if zombie.Fenced() {
		t.Fatal("a nested Exit does not touch the word and cannot have learnt of the fence")
	}
	zombie.Exit()
	if !zombie.Fenced() {
		t.Fatal("the outermost Exit swapped the mark out and did not latch")
	}
	if got := f.Node(0).AtomicLoad64(d.slotG(zombie.ID())); got != 0 {
		t.Fatalf("reservation word after Exit = %#x, want 0", got)
	}
}

// TestFenceMarkIsNotInherited: a fresh participant on an id whose previous
// holder was fenced starts unfenced.
func TestFenceMarkIsNotInherited(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 1)
	dead := d.Participant(f.Node(1), 0)
	dead.Enter()
	d.Fence(f.Node(0), dead.ID())
	fresh := d.Participant(f.Node(1), 0)
	fresh.Enter()
	fresh.Exit()
	if fresh.Fenced() {
		t.Fatal("the previous holder's fence mark fenced its successor")
	}
}

// TestRetireStampIsLoadedAfterTheUnlink: Retire queues its callback
// unstamped and the next epoch load stamps it. The stamp must be that
// fresh load, never the participant's cached seen: here the writer's seen
// is two advances stale when it retires a block a reader — entered before
// the unlink — can still reach. Stamped with seen, the block would be two
// epochs old at once and the first Collect would free it under the reader.
func TestRetireStampIsLoadedAfterTheUnlink(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 4)
	other := d.Participant(f.Node(1), 2)
	writer := staleBy(t, d, f.Node(1), 1, other, 2)
	reader := d.Participant(f.Node(0), 0) // attached now: announces the current epoch

	reader.Enter()
	freed := false
	writer.Retire(func() { freed = true }) // the unlink: after the reader's store
	if writer.PendingRetired() != 1 {
		t.Fatalf("PendingRetired = %d, want 1 (an unstamped entry counts)", writer.PendingRetired())
	}
	if got := writer.Collect(); got != 0 || freed {
		t.Fatal("Collect freed a block retired with a stale seen under a reader that entered before the unlink")
	}
	// The reader announces the current epoch, so ONE advance passes; the
	// free needs two, and the second must wait for the reader.
	if !writer.TryAdvance() {
		t.Fatal("advance failed beside a reader announcing the current epoch")
	}
	for i := 0; i < 10; i++ {
		if writer.TryAdvance() {
			t.Fatalf("attempt %d: a second advance passed an active reader", i)
		}
		if got := writer.Collect(); got != 0 || freed {
			t.Fatalf("attempt %d: block freed under an active reader", i)
		}
	}
	reader.Exit()
	if !writer.TryAdvance() {
		t.Fatal("advance failed after the reader exited")
	}
	if got := writer.Collect(); got != 1 || !freed || writer.PendingRetired() != 0 {
		t.Fatalf("Collect = %d, freed = %v, pending = %d after the grace period; want 1, true, 0", got, freed, writer.PendingRetired())
	}
}

// TestRetireOnlyParticipantReclaims is the liveness half of the deferred
// stamp: a participant that never advances the epoch itself — it only
// retires and collects — has each Collect stamp what the tick retired, so
// with peers advancing twice per tick everything retired in one tick is
// freed by the Collect two ticks later, and nothing accumulates.
func TestRetireOnlyParticipantReclaims(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	p := d.Participant(f.Node(0), 0)
	peer := d.Participant(f.Node(1), 1)
	const ticks, perTick = 20, 8
	freedAt := make([]int, ticks) // callbacks of tick i that have run
	for tick := 0; tick < ticks+2; tick++ {
		if tick < ticks {
			for i := 0; i < perTick; i++ {
				p.Retire(func() { freedAt[tick]++ })
			}
		}
		p.Collect()
		for i := 0; i <= tick-2 && i < ticks; i++ {
			if freedAt[i] != perTick {
				t.Fatalf("tick %d: %d of %d blocks retired at tick %d freed", tick, freedAt[i], perTick, i)
			}
		}
		if !peer.TryAdvance() || !peer.TryAdvance() {
			t.Fatal("peer advance failed with nobody in a section")
		}
	}
	if p.PendingRetired() != 0 {
		t.Fatalf("%d retirements still pending two ticks after the last", p.PendingRetired())
	}
}
