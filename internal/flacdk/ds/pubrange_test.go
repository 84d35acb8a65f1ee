package ds

import (
	"bytes"
	"fmt"
	"testing"

	"flacos/internal/fabric"
)

// PublishRange and ReadRange against the hand-rolled pairs they replace,
// on twin fabrics: the same pre-state, one twin calling the primitive and
// the other the pair. Every site that moved onto a primitive keeps its
// op-hook events, its counters and its virtual time only if these agree.

// rangeCapLines bounds the twins' caches. The pre-state fills the cache
// to it, so the ops under test evict as they insert.
const rangeCapLines = 96

// rangeSpanLines is the target span: the largest range tested (4096 bytes
// at an unaligned offset touches 65 lines) with room to spare.
const rangeSpanLines = 72

type opEvent struct {
	kind       fabric.OpKind
	arg0, arg1 uint64
}

// rangeTwin returns a fabric whose one node has a full bounded cache: a
// filler span loaded first, alternately dirty and clean, then the target
// span's lines in turn dirty, clean and absent, every one of them with a
// distinct pattern at home. What the op under test finds is a mix of
// dirty hits, clean hits and misses, with a FIFO victim for every insert.
func rangeTwin(t *testing.T) (*fabric.Fabric, fabric.GPtr) {
	t.Helper()
	f := fabric.New(fabric.Config{
		GlobalSize:         1 << 20,
		Nodes:              1,
		CacheCapacityLines: rangeCapLines,
		Latency:            fabric.DefaultLatency(),
	})
	n := f.Node(0)
	target := f.Reserve(rangeSpanLines*fabric.LineSize, fabric.LineSize)
	filler := f.Reserve(rangeCapLines*fabric.LineSize, fabric.LineSize)
	home := make([]byte, rangeSpanLines*fabric.LineSize)
	for i := range home {
		home[i] = byte(i*7 + 3)
	}
	n.WriteFresh(target, home)
	for i := uint64(0); i < rangeCapLines; i++ {
		g := filler.Add(i * fabric.LineSize)
		if i%2 == 0 {
			n.Store64(g, i)
		} else {
			n.Load64(g)
		}
	}
	for i := uint64(0); i < rangeSpanLines; i++ {
		g := target.Add(i * fabric.LineSize)
		switch i % 3 {
		case 0:
			n.Store64(g, ^i)
		case 1:
			n.Load64(g)
		}
	}
	if got := n.CacheResidentLines(); got != rangeCapLines {
		t.Fatalf("pre-state holds %d lines, want a full cache of %d", got, rangeCapLines)
	}
	return f, target
}

// measure runs op on f's node with an op hook installed and returns the
// events it fired, its counters and its virtual time.
func measure(f *fabric.Fabric, op func(n *fabric.Node)) ([]opEvent, fabric.NodeStatsSnapshot, uint64) {
	n := f.Node(0)
	var events []opEvent
	n.SetOpHook(func(k fabric.OpKind, a0, a1 uint64) { events = append(events, opEvent{k, a0, a1}) })
	defer n.SetOpHook(nil)
	before, vns := n.Stats(), n.VirtualNS()
	op(n)
	return events, n.Stats().Delta(before), n.VirtualNS() - vns
}

// homeOf reads [g, g+size) as home memory holds it.
func homeOf(f *fabric.Fabric, g fabric.GPtr, size uint64) []byte {
	b := make([]byte, size)
	f.Node(0).ReadFresh(g, b)
	return b
}

func TestRangePrimitivesMatchHandRolledPairs(t *testing.T) {
	for _, size := range []uint64{0, 1, 63, 64, 65, 4096} {
		for _, off := range []uint64{0, 5} {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(0xa0 ^ i)
			}
			prims := []struct {
				name       string
				prim, pair func(n *fabric.Node, g fabric.GPtr, buf []byte)
			}{
				{"publish",
					func(n *fabric.Node, g fabric.GPtr, _ []byte) { PublishRange(n, g, data) },
					func(n *fabric.Node, g fabric.GPtr, _ []byte) {
						n.Write(g, data)
						n.WriteBackRange(g, size)
					}},
				{"read",
					func(n *fabric.Node, g fabric.GPtr, buf []byte) { ReadRange(n, g, buf) },
					func(n *fabric.Node, g fabric.GPtr, buf []byte) {
						n.InvalidateRange(g, size)
						n.Read(g, buf)
					}},
			}
			for _, p := range prims {
				t.Run(fmt.Sprintf("%s/size=%d/off=%d", p.name, size, off), func(t *testing.T) {
					fp, gp := rangeTwin(t)
					fh, gh := rangeTwin(t)
					gp, gh = gp.Add(off), gh.Add(off)
					bufP, bufH := make([]byte, size), make([]byte, size)
					evP, stP, nsP := measure(fp, func(n *fabric.Node) { p.prim(n, gp, bufP) })
					evH, stH, nsH := measure(fh, func(n *fabric.Node) { p.pair(n, gh, bufH) })
					if fmt.Sprint(evP) != fmt.Sprint(evH) {
						t.Errorf("op events: primitive %v, pair %v", evP, evH)
					}
					if stP != stH {
						t.Errorf("counters: primitive %+v, pair %+v", stP, stH)
					}
					if nsP != nsH {
						t.Errorf("virtual ns: primitive %d, pair %d", nsP, nsH)
					}
					if !bytes.Equal(bufP, bufH) {
						t.Error("read different bytes")
					}
					if !bytes.Equal(homeOf(fp, gp, size), homeOf(fh, gh, size)) {
						t.Error("left different bytes at home")
					}
					if a, b := fp.Node(0).CacheResidentLines(), fh.Node(0).CacheResidentLines(); a != b {
						t.Errorf("resident lines: primitive %d, pair %d", a, b)
					}
					if size > 0 && len(evP) == 0 {
						t.Error("no op events: the pre-state exercised nothing")
					}
				})
			}
		}
	}
}

// TestRangePrimitivesAllocateNothing: neither primitive allocates, so
// moving a hot path onto one (a ring push, a RackStore entry) costs it no
// garbage.
func TestRangePrimitivesAllocateNothing(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: rangeCapLines})
	n := f.Node(0)
	g := f.Reserve(rangeSpanLines*fabric.LineSize, fabric.LineSize).Add(5)
	buf := make([]byte, 4096)
	if a := testing.AllocsPerRun(100, func() { PublishRange(n, g, buf) }); a != 0 {
		t.Errorf("PublishRange: %v allocations per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { ReadRange(n, g, buf) }); a != 0 {
		t.Errorf("ReadRange: %v allocations per call", a)
	}
}
