package ds

import (
	"bytes"
	"testing"

	"flacos/internal/fabric"
)

// Regression tests for SPSCRing's endpoint-private cursors and
// extent-bounded invalidate: what each call may cost the fabric, and the
// two invariants that make the shortcuts sound (an own-cursor shadow
// equals its home word; a slot's extent covers every line of it the
// consumer's cache can hold).

// ringMsg returns an n-byte message whose every byte depends on tag, so a
// stale line from another lap never passes for the current one.
func ringMsg(n int, tag byte) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = tag + byte(i)*3
	}
	return msg
}

// slotLines is how many cache lines an n-byte message occupies in its slot.
func slotLines(n int) uint64 {
	return fabric.AlignUp64(8+uint64(n), fabric.LineSize) / fabric.LineSize
}

func statsDelta(n *fabric.Node, fn func()) fabric.NodeStatsSnapshot {
	before := n.Stats()
	fn()
	return n.Stats().Delta(before)
}

// checkShadows fails unless each attached side's own cursor equals the
// home word.
func checkShadows(t *testing.T, r *SPSCRing, via *fabric.Node) {
	t.Helper()
	if p := &r.prod; p.node != nil {
		if home := via.AtomicLoad64(r.tailG); p.tail != home {
			t.Fatalf("producer shadow tail %d, home %d", p.tail, home)
		}
	}
	if c := &r.cons; c.node != nil {
		if home := via.AtomicLoad64(r.headG); c.head != home {
			t.Fatalf("consumer shadow head %d, home %d", c.head, home)
		}
	}
}

func TestSPSCRingFabricOpBudget(t *testing.T) {
	f := rack(t, 2, 4)
	r := NewSPSCRing(f, 4, 256)
	p, c := f.Node(0), f.Node(1)
	msg, buf := ringMsg(200, 1), make([]byte, 256)
	lines := slotLines(len(msg))
	bursts := 0
	p.SetOpHook(func(k fabric.OpKind, _, _ uint64) {
		if k == fabric.OpWriteBackRange {
			bursts++
		}
	})
	for i := 0; i < 2*int(r.Cap()); i++ { // attach both sides, read every slot once
		r.Push(p, msg)
		r.Pop(c, buf)
	}
	pingPong := func(laps int) (headReloads int) {
		for i := 0; i < laps*int(r.Cap()); i++ {
			wantPush := uint64(1) // the tail store
			if r.prod.tail-r.prod.headSeen == r.Cap() {
				wantPush++ // the view of the head looks full: one reload
				headReloads++
			}
			bursts = 0
			d := statsDelta(p, func() { r.Push(p, msg) })
			if d.Atomics != wantPush || d.WriteBacks != lines || bursts != 1 {
				t.Fatalf("push %d: %d atomics (want %d), %d lines written back (want %d) in %d bursts (want 1)",
					i, d.Atomics, wantPush, d.WriteBacks, lines, bursts)
			}
			// The consumer drained the ring last time, so its view of the
			// tail says empty: one reload, then the head store. It drops
			// and refetches exactly the lines its previous lap left.
			d = statsDelta(c, func() { r.Pop(c, buf) })
			if d.Atomics != 2 || d.Invalidates != lines || d.Misses != lines {
				t.Fatalf("pop %d: %d atomics (want 2), %d lines invalidated, %d missed (want %d each)",
					i, d.Atomics, d.Invalidates, d.Misses, lines)
			}
		}
		return headReloads
	}
	if got := pingPong(3); got != 3 {
		t.Fatalf("%d head reloads in 3 laps of ping-pong, want one per lap", got)
	}

	// A backlog needs no tail reload until the consumer's view runs out.
	for i := 0; i < 3; i++ {
		r.Push(p, msg)
	}
	for i, want := range []uint64{2, 1, 1} {
		if d := statsDelta(c, func() { r.Pop(c, buf) }); d.Atomics != want {
			t.Fatalf("backlog pop %d: %d atomics, want %d", i, d.Atomics, want)
		}
	}
	// Empty and full are reported after exactly one fresh load.
	d := statsDelta(c, func() {
		if _, ok := r.TryPop(c, buf); ok {
			t.Fatal("pop from an empty ring succeeded")
		}
	})
	if d.Atomics != 1 {
		t.Fatalf("empty pop: %d atomics, want 1", d.Atomics)
	}
	for r.TryPush(p, msg) {
	}
	d = statsDelta(p, func() {
		if r.TryPush(p, msg) {
			t.Fatal("push to a full ring succeeded")
		}
	})
	if d.Atomics != 1 || d.WriteBacks != 0 {
		t.Fatalf("full push: %d atomics, %d write-backs, want 1 and 0", d.Atomics, d.WriteBacks)
	}
}

// TestSPSCRingCrashAtEveryFabricOp crashes the node under TryPush or
// TryPop after each cache-path event of a scripted exchange in turn (the
// fabric's op hook sees every miss and write-back burst; a crash there
// kills the next operation of the call, atomics and invalidates
// included), restarts it and retries. Whatever the crash point: no
// message lost, none delivered twice, FIFO order, and both own-cursor
// shadows equal their home words.
func TestSPSCRingCrashAtEveryFabricOp(t *testing.T) {
	const msgs = 10
	size := func(v int) int { return 8 + v*37%170 } // one to three lines
	for crashAt := 1; ; crashAt++ {
		f := rack(t, 2, 4)
		r := NewSPSCRing(f, 4, 256)
		p, c := f.Node(0), f.Node(1)
		events, crashed := 0, false
		for _, n := range []*fabric.Node{p, c} {
			n.SetOpHook(func(fabric.OpKind, uint64, uint64) {
				if events++; events == crashAt {
					n.Crash()
					crashed = true
				}
			})
		}
		// attempt runs one ring call on n; a crash under it restarts n
		// and reports false.
		attempt := func(n *fabric.Node, fn func()) (ok bool) {
			defer func() {
				if !ok {
					n.Restart()
				}
				checkShadows(t, r, n)
			}()
			defer n.AbsorbCrash()
			fn()
			return true
		}
		buf := make([]byte, 256)
		pushed, popped := 0, 0
		for step := 0; popped < msgs; step++ {
			if step > 100*msgs {
				t.Fatalf("crash at event %d: no progress (pushed %d, popped %d)", crashAt, pushed, popped)
			}
			if pushed < msgs && step%3 != 2 {
				done := false
				if attempt(p, func() { done = r.TryPush(p, ringMsg(size(pushed), byte(pushed))) }) && done {
					pushed++
				}
			}
			if step%3 != 0 {
				ln, done := 0, false
				if attempt(c, func() { ln, done = r.TryPop(c, buf) }) && done {
					if want := ringMsg(size(popped), byte(popped)); !bytes.Equal(buf[:ln], want) {
						t.Fatalf("crash at event %d: pop %d returned %d bytes, not message %d", crashAt, popped, ln, popped)
					}
					popped++
				}
			}
		}
		if got := r.Len(p); got != 0 {
			t.Fatalf("crash at event %d: %d messages left after all %d were delivered", crashAt, got, msgs)
		}
		if !crashed {
			if crashAt < 20 {
				t.Fatalf("script produced only %d events", events)
			}
			return // crashAt is past the script's last event: every point covered
		}
	}
}

// TestSPSCRingExtentTracksMessageSize grows and shrinks the messages that
// land in one slot lap over lap. Each must read back exact, and the
// consumer's cache must hold exactly the lines of the last message read
// from each slot: an extent narrower than that would leave stale lines
// behind for the next large message.
func TestSPSCRingExtentTracksMessageSize(t *testing.T) {
	f := rack(t, 2, 4)
	r := NewSPSCRing(f, 2, 4096)
	p, c := f.Node(0), f.Node(1)
	buf := make([]byte, 4096)
	last := make([]uint64, r.Cap()) // lines of the last message read per slot
	for i, n := range []int{96, 4096, 4096, 40, 40, 4096, 4096, 200, 0, 40, 4096, 96} {
		msg := ringMsg(n, byte(i))
		r.Push(p, msg)
		if ln := r.Pop(c, buf); !bytes.Equal(buf[:ln], msg) {
			t.Fatalf("message %d (%d B) read back wrong (%d B)", i, n, ln)
		}
		last[i%len(last)] = slotLines(n)
		want := uint64(0)
		for _, l := range last {
			want += l
		}
		if got := uint64(c.CacheResidentLines()); got != want {
			t.Fatalf("after message %d (%d B): consumer cache holds %d lines, want %d", i, n, got, want)
		}
	}
}

// TestSPSCRingSideTakeover hands each side to another node and back. The
// private views model the attached node's local memory, which a newcomer
// does not have: it pays one read of its own cursor and one forced reload
// of the peer's, once, and as consumer it must not trust lines it cached
// in any earlier role.
func TestSPSCRingSideTakeover(t *testing.T) {
	f := rack(t, 3, 4)
	r := NewSPSCRing(f, 2, 4096)
	a, b, c := f.Node(0), f.Node(1), f.Node(2)
	buf := make([]byte, 4096)
	tag := byte(0)
	// exchange passes one n-byte message from prod to cons and returns
	// the fabric atomics each side issued.
	exchange := func(prod, cons *fabric.Node, n int) (pushAtomics, popAtomics uint64) {
		t.Helper()
		tag++
		msg := ringMsg(n, tag)
		pushAtomics = statsDelta(prod, func() {
			if !r.TryPush(prod, msg) {
				t.Fatalf("message %d: ring full", tag)
			}
		}).Atomics
		popAtomics = statsDelta(cons, func() {
			if ln, ok := r.TryPop(cons, buf); !ok || !bytes.Equal(buf[:ln], msg) {
				t.Fatalf("message %d (%d B) from node %d read back wrong on node %d (ok=%v, %d B)",
					tag, n, prod.ID(), cons.ID(), ok, ln)
			}
		}).Atomics
		checkShadows(t, r, prod)
		return pushAtomics, popAtomics
	}
	wantAtomics := func(what string, push, pop, wantPush, wantPop uint64) {
		t.Helper()
		if push != wantPush || pop != wantPop {
			t.Fatalf("%s: push %d atomics (want %d), pop %d (want %d)", what, push, wantPush, pop, wantPop)
		}
	}
	// b consumes from a and caches every line of both slots.
	push, pop := exchange(a, b, 4096)
	wantAtomics("first attach", push, pop, 3, 3)
	push, pop = exchange(a, b, 4096)
	wantAtomics("attached", push, pop, 1, 2)
	// b takes the producing side and c the consuming side; the extents
	// shrink to one line.
	push, pop = exchange(b, c, 40)
	wantAtomics("takeover", push, pop, 3, 3)
	push, pop = exchange(b, c, 40)
	wantAtomics("after takeover", push, pop, 1, 2)
	// a resumes producing and b resumes consuming, with both slots' old
	// lines still in its cache.
	exchange(a, b, 4096)
	exchange(a, b, 4096)
}
