package ds

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"flacos/internal/fabric"
)

// Tests for HashMap's slot handles and its line probe: what each operation
// may cost the fabric; the two properties the handle protocol rests on —
// racing exchanges on one slot hand every value to exactly one owner, and
// a handle that outlives its key's Delete can no longer install anything;
// and what a reader concludes from a line copy that an insert, a delete or
// an exchange has overtaken.

// pricedRack is a one-hop rack under the default latency model, for the
// tests that pin what an operation is charged.
func pricedRack(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: nodes, Latency: fabric.DefaultLatency()})
}

// homedKeys returns count keys whose probe sequences all start at slot
// home of m, found by search: inserted in order they occupy home, home+1, ...
func homedKeys(m *HashMap, home uint64, count int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < count; k++ {
		if mix(k)&(m.capacity-1) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestHashMapSlotFabricBudget pins, from Node.Stats() deltas, what every
// operation on a key that sits at its home slot costs the fabric: the probe
// is ONE fresh line fetch and no atomic, a handle op is ONE atomic, and
// every mutation is the atomic it always was. Then the probe's reach: a
// collision inside the line is free, a walk into the next line is one more
// fetch.
func TestHashMapSlotFabricBudget(t *testing.T) {
	f := pricedRack(1)
	n, lat := f.Node(0), f.Latency()
	m := NewHashMap(f, 64)
	const key = 7
	m.Put(n, key, 1)
	atomicNS := uint64(lat.AtomicNS + n.Hops()*lat.HopNS)
	fetchNS := uint64(lat.LocalNS + lat.GlobalNS + n.Hops()*lat.HopNS)

	check := func(name string, atomics, fetches uint64, fn func() bool) {
		t.Helper()
		ok := false
		d := statsDelta(n, func() { ok = fn() })
		if !ok {
			t.Fatalf("%s: wrong result", name)
		}
		want := fabric.NodeStatsSnapshot{Atomics: atomics, Loads: fetches, Misses: fetches,
			BulkBytesRead: fetches * fabric.LineSize, VirtualNS: atomics*atomicNS + fetches*fetchNS}
		if d != want {
			t.Fatalf("%s: %d atomics, %d line fetches, %d sim_ns (%+v); want %d atomics, %d fetches, %d sim_ns and nothing else",
				name, d.Atomics, d.Misses, d.VirtualNS, d, atomics, fetches, want.VirtualNS)
		}
	}
	var s Slot
	check("Find", 0, 1, func() bool {
		var v uint64
		var ok bool
		s, v, ok = m.Find(n, key)
		return ok && v == 1
	})
	check("ExchangeAt", 1, 0, func() bool { prev, ok := m.ExchangeAt(n, s, 2); return ok && prev == 1 })
	check("CompareAndSwapAt", 1, 0, func() bool { return m.CompareAndSwapAt(n, s, 2, 3) })
	check("CompareAndSwapAt from a value since replaced", 1, 0, func() bool { return !m.CompareAndSwapAt(n, s, 2, 9) })
	// The handle still carries value 1: the first CAS fails, one reload,
	// the second CAS lands.
	check("ExchangeAt through a stale handle", 3, 0, func() bool { prev, ok := m.ExchangeAt(n, s, 4); return ok && prev == 3 })
	check("Get", 0, 1, func() bool { v, ok := m.Get(n, key); return ok && v == 4 })
	check("Exchange", 1, 1, func() bool { prev, ok := m.Exchange(n, key, 5); return ok && prev == 4 })
	check("CompareAndSwap", 1, 1, func() bool { return m.CompareAndSwap(n, key, 5, 6) })
	check("PutIfAbsent of a present key", 0, 1, func() bool { v, ins := m.PutIfAbsent(n, key, 99); return !ins && v == 6 })
	check("Put over a present key", 2, 1, func() bool { prev, ok := m.Put(n, key, 7); return ok && prev == 6 })
	check("Find of an absent key", 0, 1, func() bool { h, _, ok := m.Find(n, key+1); return !ok && h == Slot{} })
	check("ExchangeAt through the zero Slot", 0, 0, func() bool { _, ok := m.ExchangeAt(n, Slot{}, 5); return !ok })
	check("CompareAndSwapAt through the zero Slot", 0, 0, func() bool { return !m.CompareAndSwapAt(n, Slot{}, 0, 5) })
	if v, _ := m.Get(n, key); v != 7 {
		t.Fatalf("value %d after the script, want 7", v)
	}
	if fetchNS != 630 || atomicNS != 680 {
		t.Fatalf("a fetch costs %d and an atomic %d sim_ns; the ledger says 630 and 680", fetchNS, atomicNS)
	}

	// Five keys homed on the first slot of a line fill it and spill one slot
	// into the next line. The four in the line each cost ONE fetch however
	// many collisions the walk passes; the fifth costs two. Claiming is the
	// same walk plus the claim CAS, the value store and the count.
	m = NewHashMap(f, 64)
	keys := homedKeys(m, 8, slotsPerLine+2)
	for i, k := range keys[:slotsPerLine+1] {
		fetches := uint64(1 + i/slotsPerLine)
		check(fmt.Sprintf("Put claiming probe step %d", i), 3, fetches, func() bool { _, existed := m.Put(n, k, uint64(i)); return !existed })
		check(fmt.Sprintf("Get at probe step %d", i), 0, fetches, func() bool { v, ok := m.Get(n, k); return ok && v == uint64(i) })
	}
	check("Get of an absent key past a full line", 0, 2, func() bool { _, ok := m.Get(n, keys[slotsPerLine+1]); return !ok })
	// A tombstone is walked past out of the same copy.
	check("Delete", 2+1, 1, func() bool { v, ok := m.Delete(n, keys[1]); return ok && v == 1 })
	check("Get past a tombstone in the line", 0, 1, func() bool { v, ok := m.Get(n, keys[3]); return ok && v == 3 })

	// Range streams the table: 64 slots are 16 lines, one pipelined read.
	d := statsDelta(n, func() {
		seen := 0
		m.Range(n, func(k, v uint64) bool { seen++; return true })
		if seen != slotsPerLine {
			t.Fatalf("Range saw %d entries, want %d", seen, slotsPerLine)
		}
	})
	if lines := m.capacity / slotsPerLine; d.Atomics != 0 || d.Loads != 1 || d.Misses != lines || d.VirtualNS != fetchNS+(lines-1)*uint64(lat.PerLineNS) {
		t.Fatalf("Range over %d lines: %d atomics, %d reads, %d line fetches, %d sim_ns; want 0, 1, %d and one pipelined transfer",
			lines, d.Atomics, d.Loads, d.Misses, d.VirtualNS, lines)
	}
}

// onFirstFetch arms n so that script runs once, right after n's next fresh
// line fetch has copied its line out of home memory and before n does
// anything with the copy — the window between a probe's fetch and its next
// step. The script must act through another node. The returned function
// disarms n and reports whether the script ran.
func onFirstFetch(n *fabric.Node, script func()) (ran func() bool) {
	fired := false
	n.SetOpHook(func(k fabric.OpKind, _, _ uint64) {
		if k == fabric.OpReadFresh && !fired {
			fired = true
			script()
		}
	})
	return func() bool { n.SetOpHook(nil); return fired }
}

// TestHashMapSlotLineProbeVersusInsert: a reader whose copy was taken
// before an insert, or between the insert's claim and its publish, reports
// the key absent — it linearizes before the insert — and a second look
// finds it. An inserter whose copy went stale under it loses its claim CAS,
// fetches again and agrees with the winner.
func TestHashMapSlotLineProbeVersusInsert(t *testing.T) {
	f := rack(t, 2, 4)
	r, w := f.Node(0), f.Node(1)
	m := NewHashMap(f, 64)
	const key = 21

	ran := onFirstFetch(r, func() { m.Put(w, key, 5) })
	if _, ok := m.Get(r, key); ok || !ran() {
		t.Fatalf("reader whose copy predates the insert found the key (script ran: %v)", ran())
	}
	if v, ok := m.Get(r, key); !ok || v != 5 {
		t.Fatalf("second look = %d, %v", v, ok)
	}

	// Claimed, not yet published: the inserter's two steps, taken apart.
	const key2 = 22
	i, _, end := m.probe(w, key2, true)
	if end != probeClaimed {
		t.Fatalf("probe ended %d, want a claim", end)
	}
	ran = onFirstFetch(r, func() { m.publish(w, i, encode(6)) }) // publish lands after the copy
	if s, _, ok := m.Find(r, key2); ok || s != (Slot{}) || !ran() {
		t.Fatal("reader saw a claimed, unpublished slot as present")
	}
	if v, ok := m.Get(r, key2); !ok || v != 6 {
		t.Fatalf("after the publish = %d, %v", v, ok)
	}

	// The claim path: the copy shows the slot empty, another node binds the
	// same key there first. One failed CAS, one refetch, the winner's value.
	const key3 = 23
	ran = onFirstFetch(r, func() { m.Put(w, key3, 7) })
	d := statsDelta(r, func() {
		if v, inserted := m.PutIfAbsent(r, key3, 8); inserted || v != 7 {
			t.Fatalf("PutIfAbsent after losing the claim = (%d, %v), want the winner's (7, false)", v, inserted)
		}
	})
	if !ran() || d.Atomics != 1 || d.Misses != 2 {
		t.Fatalf("lost claim: script ran %v, %d atomics, %d fetches; want one failed CAS and two fetches", ran(), d.Atomics, d.Misses)
	}
	if m.Len(r) != 3 {
		t.Fatalf("Len = %d, want 3", m.Len(r))
	}
}

// TestHashMapSlotLineProbeVersusDelete: a reader meets a Delete at each of
// its points. Copy taken before the key CAS: the reader returns the value
// the key held then, and its handle is dead — an exchange through it
// reports the key absent and installs nothing. Copy taken between the key
// CAS and the drain: the tombstone is already there, the key is absent,
// though the value word is still set.
func TestHashMapSlotLineProbeVersusDelete(t *testing.T) {
	f := rack(t, 2, 4)
	r, w := f.Node(0), f.Node(1)
	m := NewHashMap(f, 64)
	const key = 31
	m.Put(w, key, 10)

	ran := onFirstFetch(r, func() { m.Delete(w, key) })
	s, v, ok := m.Find(r, key)
	if !ran() || !ok || v != 10 {
		t.Fatalf("reader whose copy predates the delete = (%d, %v), want the value the key held (10, true)", v, ok)
	}
	if prev, existed := m.ExchangeAt(r, s, 11); existed {
		t.Fatalf("ExchangeAt through the dead handle exchanged %d", prev)
	}
	if m.CompareAndSwapAt(r, s, 10, 11) {
		t.Fatal("CompareAndSwapAt through the dead handle succeeded")
	}
	if got := r.AtomicLoad64(m.valueG(s.i)); got != 0 {
		t.Fatalf("dead slot's value word = %#x", got)
	}

	const key2 = 32
	m.Put(w, key2, 20)
	s2, _, _ := m.Find(w, key2)
	if !w.CAS64(m.keyG(s2.i), key2, tombstone) { // the deleter's first step
		t.Fatal("deleter's key CAS failed")
	}
	if _, ok := m.Get(r, key2); ok {
		t.Fatal("reader found a key whose slot is already a tombstone")
	}
	if v, ok := m.drain(w, s2.i); !ok || v != 20 {
		t.Fatalf("drain = (%d, %v)", v, ok)
	}
	if _, ok := m.Get(r, key2); ok || m.Len(r) != 0 {
		t.Fatalf("key present after the delete (Len %d)", m.Len(r))
	}
}

// TestHashMapSlotLineProbeReinsertSameLine: a deleted key that is inserted
// again lands in a LATER slot of the same line (tombstones are never
// reused), so one copy shows both the tombstone and the new binding. A
// reader finds the new one out of that single copy; a reader whose copy
// predates the whole delete-and-reinsert returns the old value and holds a
// dead handle, never a handle on the new slot.
func TestHashMapSlotLineProbeReinsertSameLine(t *testing.T) {
	f := pricedRack(2)
	r, w := f.Node(0), f.Node(1)
	m := NewHashMap(f, 64)
	key := homedKeys(m, 12, 1)[0] // first slot of a line: three free slots behind it
	m.Put(w, key, 1)
	old, _, _ := m.Find(w, key)

	ran := onFirstFetch(r, func() {
		m.Delete(w, key)
		m.Put(w, key, 2)
	})
	s, v, ok := m.Find(r, key)
	if !ran() || !ok || v != 1 || s != old {
		t.Fatalf("reader whose copy predates delete and reinsert = (%+v, %d, %v), want the old slot and value 1", s, v, ok)
	}
	if _, existed := m.ExchangeAt(r, s, 9); existed {
		t.Fatal("the old slot's handle exchanged into the reinserted key")
	}

	d := statsDelta(r, func() { s, v, ok = m.Find(r, key) })
	if !ok || v != 2 || s.i != old.i+1 {
		t.Fatalf("after the reinsert Find = (slot %d, %d, %v), want slot %d (the next of the line) and value 2", s.i, v, ok, old.i+1)
	}
	if d.Misses != 1 || d.Atomics != 0 {
		t.Fatalf("tombstone and new binding share a line: %d fetches, %d atomics; want 1 and 0", d.Misses, d.Atomics)
	}
	if prev, existed := m.ExchangeAt(r, s, 3); !existed || prev != 2 {
		t.Fatalf("ExchangeAt through the new handle = (%d, %v)", prev, existed)
	}
	if v, _ := m.Get(w, key); v != 3 || m.Len(w) != 1 {
		t.Fatalf("final value %d, Len %d; want 3 and 1", v, m.Len(w))
	}
}

// TestHashMapSlotLineProbeStaleSeen: the value word a handle starts from
// comes out of the fetched copy, so it can be out of date before the handle
// is ever used. The exchange's CAS then fails, reloads and lands on the
// word as it really is: the two racing exchanges receive distinct previous
// values — nothing is installed over a value its installer did not get back.
func TestHashMapSlotLineProbeStaleSeen(t *testing.T) {
	f := rack(t, 2, 4)
	r, w := f.Node(0), f.Node(1)
	m := NewHashMap(f, 64)
	const key = 41
	m.Put(w, key, 100)

	var theirs uint64
	ran := onFirstFetch(r, func() { theirs, _ = m.Exchange(w, key, 200) })
	s, v, ok := m.Find(r, key)
	if !ran() || !ok || v != 100 {
		t.Fatalf("Find = (%d, %v), script ran %v", v, ok, ran())
	}
	var ours uint64
	d := statsDelta(r, func() { ours, ok = m.ExchangeAt(r, s, 300) })
	if !ok || theirs != 100 || ours != 200 {
		t.Fatalf("previous values: theirs %d, ours %d (%v); want 100 and 200, each handed out once", theirs, ours, ok)
	}
	if d.Atomics != 3 || d.Misses != 0 {
		t.Fatalf("exchange from a stale copy: %d atomics, %d fetches; want a failed CAS, a reload and a CAS", d.Atomics, d.Misses)
	}
	if v, _ := m.Get(w, key); v != 300 {
		t.Fatalf("final value %d, want 300", v)
	}
	// The by-key form meets the same window inside one call.
	ran = onFirstFetch(r, func() { theirs, _ = m.Exchange(w, key, 400) })
	ours, ok = m.Exchange(r, key, 500)
	if !ran() || !ok || theirs != 300 || ours != 400 {
		t.Fatalf("by key: theirs %d, ours %d (%v); want 300 and 400", theirs, ours, ok)
	}
	// And CompareAndSwap is decided by its CAS, not by the copy.
	ran = onFirstFetch(r, func() { m.Exchange(w, key, 600) })
	if m.CompareAndSwap(r, key, 500, 700) || !ran() {
		t.Fatal("CompareAndSwap succeeded from a value its copy showed but the word no longer held")
	}
}

// TestHashMapExchangeAtStaleHandles: every goroutine takes ONE handle and
// exchanges through it for the whole run, so almost every call starts from
// a stale observed word. Nothing may be lost or handed out twice: the
// previous values returned plus the final value are exactly the initial
// value plus everything installed.
func TestHashMapExchangeAtStaleHandles(t *testing.T) {
	const (
		workers = 8
		each    = 300
		key     = 11
	)
	f := rack(t, 4, 8)
	m := NewHashMap(f, 64)
	m.Put(f.Node(0), key, 0)

	var wg sync.WaitGroup
	prevs := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := f.Node(w % f.NumNodes())
			s, _, ok := m.Find(n, key)
			if !ok {
				t.Errorf("worker %d: bound key not found", w)
				return
			}
			for i := 0; i < each; i++ {
				prev, existed := m.ExchangeAt(n, s, uint64(w*each+i)+1)
				if !existed {
					t.Errorf("worker %d: bound key reported absent", w)
					return
				}
				prevs[w] = append(prevs[w], prev)
			}
		}(w)
	}
	wg.Wait()

	final, ok := m.Get(f.Node(0), key)
	if !ok {
		t.Fatal("key vanished")
	}
	got := []uint64{final}
	for _, ps := range prevs {
		got = append(got, ps...)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != workers*each+1 {
		t.Fatalf("%d values accounted for, want %d", len(got), workers*each+1)
	}
	for i, v := range got { // the initial 0 and the installed 1..workers*each, each once
		if v != uint64(i) {
			t.Fatalf("sorted values differ from 0..%d at index %d: %d (one lost or handed out twice)", workers*each, i, v)
		}
	}
}

// TestHashMapSlotAfterDelete: a handle taken before its key's Delete
// installs nothing afterwards, and the dead slot's value word stays 0 —
// also when the key has since been inserted again (in another slot).
func TestHashMapSlotAfterDelete(t *testing.T) {
	f := rack(t, 2, 4)
	a, b := f.Node(0), f.Node(1)
	m := NewHashMap(f, 64)
	const key = 5
	m.Put(a, key, 10)
	s, _, _ := m.Find(b, key)
	if v, ok := m.Delete(a, key); !ok || v != 10 {
		t.Fatalf("Delete = %d, %v", v, ok)
	}
	for round := 0; round < 2; round++ {
		if prev, existed := m.ExchangeAt(b, s, 11); existed {
			t.Fatalf("round %d: ExchangeAt through a dead handle exchanged %d", round, prev)
		}
		if m.CompareAndSwapAt(b, s, 10, 11) {
			t.Fatalf("round %d: CompareAndSwapAt through a dead handle succeeded", round)
		}
		if w := a.AtomicLoad64(m.valueG(s.i)); w != 0 {
			t.Fatalf("round %d: dead slot's value word = %#x", round, w)
		}
		m.Put(a, key, 20) // rebinds key in a fresh slot; the old handle stays dead
	}
	if v, ok := m.Get(b, key); !ok || v != 20 || m.Len(a) != 1 {
		t.Fatalf("re-inserted key = %d, %v, Len %d", v, ok, m.Len(a))
	}
}

// TestHashMapExchangeAtBetweenDeleteSteps scripts the one interleaving in
// which a handle's CAS and a Delete both succeed: the CAS lands after the
// deleter's key CAS and before its value Swap. The Swap must hand the
// exchanged-in value to the deleter — history: exchange, then delete —
// so each of the two values has exactly one owner. (Delete is fabric
// atomics only, which the op hook does not see, so the script performs the
// deleter's key CAS itself and calls its second step, drain, directly.)
func TestHashMapExchangeAtBetweenDeleteSteps(t *testing.T) {
	f := rack(t, 2, 4)
	del, exch := f.Node(0), f.Node(1)
	m := NewHashMap(f, 64)
	const key = 9
	m.Put(del, key, 100)
	s, _, _ := m.Find(exch, key)

	if !del.CAS64(m.keyG(s.i), key, tombstone) {
		t.Fatal("deleter's key CAS failed")
	}
	prev, existed := m.ExchangeAt(exch, s, 200)
	if !existed || prev != 100 {
		t.Fatalf("ExchangeAt between the deleter's steps = (%d, %v), want (100, true)", prev, existed)
	}
	if v, ok := m.drain(del, s.i); !ok || v != 200 {
		t.Fatalf("deleter took (%d, %v), want the exchanged-in 200", v, ok)
	}
	if _, existed := m.ExchangeAt(exch, s, 300); existed {
		t.Fatal("ExchangeAt after the deleter's Swap still exchanged")
	}
	if _, ok := m.Get(exch, key); ok || m.Len(del) != 0 {
		t.Fatalf("key present after delete (Len %d)", m.Len(del))
	}
}

// TestHashMapSlotRacingDelete runs the same race unscripted: exchangers
// holding handles, and one Delete that lands once they are under way. Whatever the interleaving, every value — the initial
// one and each one installed — ends up with exactly one owner: an
// exchanger that got it back as a previous value, or the deleter. (A
// Delete that cleared the value word with a load and a store instead of
// one Swap would strand the value exchanged in between the two.)
func TestHashMapSlotRacingDelete(t *testing.T) {
	const workers, each, rounds = 4, 200, 100
	f := rack(t, workers, 4)
	m := NewHashMap(f, 4*rounds)
	for round := 0; round < rounds; round++ {
		key := uint64(round) + 1
		m.Put(f.Node(0), key, 0)
		handles := make([]Slot, workers)
		for w := range handles {
			handles[w], _, _ = m.Find(f.Node(w), key)
		}
		owned := make([][]uint64, workers+1) // per exchanger, then the deleter
		installed := make([]uint64, workers) // how many values each exchanger installed
		var exchanges atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for installed[w] < each {
					// Values unique per (exchanger, call), never 0.
					prev, existed := m.ExchangeAt(f.Node(w), handles[w], uint64(w+1)<<32|installed[w])
					if !existed {
						return
					}
					installed[w]++
					owned[w] = append(owned[w], prev)
					exchanges.Add(1)
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for exchanges.Load() < 64 {
				runtime.Gosched()
			}
			if v, ok := m.Delete(f.Node(0), key); ok {
				owned[workers] = append(owned[workers], v)
			}
		}()
		wg.Wait()

		seen := map[uint64]bool{}
		for _, vs := range owned {
			for _, v := range vs {
				if seen[v] {
					t.Fatalf("round %d: value %#x has two owners", round, v)
				}
				seen[v] = true
			}
		}
		want := 1 // the initial value
		for w, k := range installed {
			want += int(k)
			for i := uint64(0); i < k; i++ {
				if v := uint64(w+1)<<32 | i; !seen[v] {
					t.Fatalf("round %d: installed value %#x has no owner", round, v)
				}
			}
		}
		if !seen[0] || len(seen) != want {
			t.Fatalf("round %d: %d values owned, want %d (initial owned: %v)", round, len(seen), want, seen[0])
		}
		if w := f.Node(0).AtomicLoad64(m.valueG(handles[0].i)); w != 0 {
			t.Fatalf("round %d: deleted slot's value word = %#x", round, w)
		}
	}
}
