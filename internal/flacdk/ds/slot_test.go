package ds

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for HashMap's slot handles: what each operation may cost the
// fabric, and the two properties the handle protocol rests on — racing
// exchanges on one slot hand every value to exactly one owner, and a
// handle that outlives its key's Delete can no longer install anything.

// TestHashMapSlotFabricBudget pins, from Node.Stats() deltas, the fabric
// atomics of every operation on a key that sits at its home slot: a handle
// op is ONE atomic, Find is two, and no by-key op costs more than it did
// before the probe loops were folded into one.
func TestHashMapSlotFabricBudget(t *testing.T) {
	f := rack(t, 1, 4)
	n := f.Node(0)
	m := NewHashMap(f, 64)
	const key = 7
	m.Put(n, key, 1)
	atomicNS := uint64(f.Latency().AtomicNS + n.Hops()*f.Latency().HopNS)

	check := func(name string, atomics uint64, fn func() bool) {
		t.Helper()
		ok := false
		d := statsDelta(n, func() { ok = fn() })
		if !ok {
			t.Fatalf("%s: wrong result", name)
		}
		if d.Atomics != atomics || d.VirtualNS != atomics*atomicNS {
			t.Fatalf("%s: %d atomics, %d sim_ns; want %d atomics and nothing else", name, d.Atomics, d.VirtualNS, atomics)
		}
	}
	var s Slot
	check("Find", 2, func() bool {
		var v uint64
		var ok bool
		s, v, ok = m.Find(n, key)
		return ok && v == 1
	})
	check("ExchangeAt", 1, func() bool { prev, ok := m.ExchangeAt(n, s, 2); return ok && prev == 1 })
	check("CompareAndSwapAt", 1, func() bool { return m.CompareAndSwapAt(n, s, 2, 3) })
	check("CompareAndSwapAt from a value since replaced", 1, func() bool { return !m.CompareAndSwapAt(n, s, 2, 9) })
	// The handle still carries value 1: the first CAS fails, one reload,
	// the second CAS lands.
	check("ExchangeAt through a stale handle", 3, func() bool { prev, ok := m.ExchangeAt(n, s, 4); return ok && prev == 3 })
	check("Get", 2, func() bool { v, ok := m.Get(n, key); return ok && v == 4 })
	check("Exchange", 3, func() bool { prev, ok := m.Exchange(n, key, 5); return ok && prev == 4 })
	check("CompareAndSwap", 2, func() bool { return m.CompareAndSwap(n, key, 5, 6) })
	check("PutIfAbsent of a present key", 2, func() bool { v, ins := m.PutIfAbsent(n, key, 99); return !ins && v == 6 })
	check("Put over a present key", 3, func() bool { prev, ok := m.Put(n, key, 7); return ok && prev == 6 })
	check("Find of an absent key", 1, func() bool { h, _, ok := m.Find(n, key+1); return !ok && h == Slot{} })
	check("ExchangeAt through the zero Slot", 0, func() bool { _, ok := m.ExchangeAt(n, Slot{}, 5); return !ok })
	check("CompareAndSwapAt through the zero Slot", 0, func() bool { return !m.CompareAndSwapAt(n, Slot{}, 0, 5) })
	if v, _ := m.Get(n, key); v != 7 {
		t.Fatalf("value %d after the script, want 7", v)
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
