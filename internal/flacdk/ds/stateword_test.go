package ds

import (
	"testing"

	"flacos/internal/fabric"
)

// TestStateWordGolden pins the state word's bit layout to words the three
// hand-rolled packers it replaced produced — membership's control word,
// health's verdict word and sched's task-slot word — so every control word
// in the arena stays bit-identical: each field at 0 and at its maximum, and
// over-wide gen, aux and owner masked as before.
func TestStateWordGolden(t *testing.T) {
	type fields struct {
		gen, aux uint64
		owner    int
		state    uint8
	}
	rows := []struct {
		name string
		in   fields
		word uint64
		out  fields // what the accessors decode
	}{
		{"zero", fields{0, 0, 0, 0}, 0, fields{0, 0, 0, 0}},
		{"every field at its maximum", fields{0xffffffff, 0xffff, 0xff, 0xff}, 0xffffffffffffffff, fields{0xffffffff, 0xffff, 0xff, 0xff}},
		{"membership suspect", fields{3, 2, 7, 3}, 0x300020703, fields{3, 2, 7, 3}},
		{"membership over-wide gen, aux and owner", fields{1<<32 | 5, 0x1ffff, 0x1ff, 2}, 0x5ffffff02, fields{5, 0xffff, 0xff, 2}},
		{"membership owner -1", fields{9, 1, -1, 4}, 0x90001ff04, fields{9, 1, 0xff, 4}},
		{"health maximum", fields{0xffffffff, 0, 0xff, 0xff}, 0xffffffff0000ffff, fields{0xffffffff, 0, 0xff, 0xff}},
		{"health over-wide owner", fields{4, 0, 0x1fe, 2}, 0x40000fe02, fields{4, 0, 0xfe, 2}},
		{"sched over-wide attempt and owner", fields{12, 0x10003, 0x102, 3}, 0xc00030203, fields{12, 3, 2, 3}},
		{"sched queued", fields{7, 1, 0, 2}, 0x700010002, fields{7, 1, 0, 2}},
	}
	for _, r := range rows {
		w := PackState(r.in.gen, r.in.aux, r.in.owner, r.in.state)
		if uint64(w) != r.word {
			t.Errorf("%s: PackState%v = %#x, want %#x", r.name, r.in, uint64(w), r.word)
		}
		if got := (fields{w.Gen(), w.Aux(), w.Owner(), w.State()}); got != r.out {
			t.Errorf("%s: %#x decodes to %v, want %v", r.name, r.word, got, r.out)
		}
	}
}

// TestStateTableTransitionBudget pins what a transition costs: won or
// lost, it is the one CAS — one atomic, no cache traffic — and a won one
// writes the slot's word, word 0 of its line, and nothing else.
func TestStateTableTransitionBudget(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	tab := NewStateTable[uint8](f, 2)
	n := f.Node(0)
	next := PackState[uint8](1, 0, 0, 1)
	clock := n.VirtualNS()
	tab.Load(n, 1)
	atomicNS := n.VirtualNS() - clock // what one atomic charges
	one := fabric.NodeStatsSnapshot{Atomics: 1, VirtualNS: atomicNS}

	before := n.Stats()
	if !tab.Transition(n, 1, 0, next) {
		t.Fatal("transition from the zero word lost")
	}
	if d := n.Stats().Delta(before); d != one {
		t.Fatalf("won transition: %+v; want 1 atomic and nothing else", d)
	}

	before = n.Stats()
	if tab.Transition(n, 1, 0, PackState[uint8](2, 0, 0, 1)) {
		t.Fatal("transition from a stale word won")
	}
	if d := n.Stats().Delta(before); d != one {
		t.Fatalf("lost transition: %+v; want 1 atomic and nothing else", d)
	}
	if tab.Load(n, 1) != next {
		t.Fatalf("lost transition left word %#x, want %#x", tab.Load(n, 1), next)
	}
	if tab.Load(n, 0) != 0 {
		t.Fatal("a transition of slot 1 touched slot 0")
	}
	line := tab.base.Add(fabric.LineSize) // slot 1
	if n.AtomicLoad64(line) != uint64(next) {
		t.Fatal("slot 1's word is not word 0 of its line")
	}
	for w := uint64(1); w < fabric.LineSize/fabric.WordSize; w++ {
		if v := n.AtomicLoad64(line.Add(w * fabric.WordSize)); v != 0 {
			t.Fatalf("word %d of slot 1's line is %#x after its transitions, want 0", w, v)
		}
	}
}
