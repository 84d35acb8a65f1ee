package reliability

import (
	"bytes"
	"math"
	"testing"

	"flacos/internal/fabric"
)

func rack(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: nodes})
}

func TestScrubberDetectsBitFlip(t *testing.T) {
	f := rack(t, 1)
	n := f.Node(0)
	s := NewScrubber(f)
	g := f.Reserve(256, 64)
	data := bytes.Repeat([]byte{0xAB}, 256)
	n.Write(g, data)
	n.FlushRange(g, 256)

	r := Region{G: g, Size: 256}
	s.Protect(r)
	if bad := s.ScrubOnce(); len(bad) != 0 {
		t.Fatalf("clean region reported corrupt: %v", bad)
	}
	f.Faults().FlipBitAtHome(f, g.Add(64), 5)
	bad := s.ScrubOnce()
	if len(bad) != 1 || bad[0] != r {
		t.Fatalf("scrub = %v, want [%v]", bad, r)
	}
	// Repair restores ground truth.
	s.Repair(r, data)
	if bad := s.ScrubOnce(); len(bad) != 0 {
		t.Fatalf("repaired region still corrupt: %v", bad)
	}
	got := make([]byte, 256)
	f.ReadAtHome(g, got)
	if !bytes.Equal(got, data) {
		t.Fatal("repair did not restore contents")
	}
}

func TestScrubberSealAfterLegitimateWrite(t *testing.T) {
	f := rack(t, 1)
	n := f.Node(0)
	s := NewScrubber(f)
	g := f.Reserve(64, 64)
	r := Region{G: g, Size: 64}
	s.Protect(r)
	n.Store64(g, 99)
	n.FlushRange(g, 64)
	if bad := s.ScrubOnce(); len(bad) != 1 {
		t.Fatal("unsealed legitimate write should look like corruption")
	}
	s.Protect(r)
	if bad := s.ScrubOnce(); len(bad) != 0 {
		t.Fatal("sealed region reported corrupt")
	}
}

func TestPredictorEWMA(t *testing.T) {
	p := NewPredictor()
	p.Observe(0)
	if p.Rate() != 0 {
		t.Fatalf("rate = %v", p.Rate())
	}
	p.Observe(8) // 0.3*8 + 0.7*0 = 2.4
	if math.Abs(p.Rate()-2.4) > 1e-9 {
		t.Fatalf("rate = %v, want 2.4", p.Rate())
	}
	p.Observe(8) // 0.3*8 + 0.7*2.4 = 4.08
	if math.Abs(p.Rate()-4.08) > 1e-9 {
		t.Fatalf("rate = %v, want 4.08", p.Rate())
	}
}

func TestCheckpointSaveLatest(t *testing.T) {
	f := rack(t, 2)
	c := NewCheckpointer(f, f.Node(0), 1024)
	if _, _, ok := c.Latest(f.Node(1)); ok {
		t.Fatal("empty checkpointer returned a snapshot")
	}
	c.Save([]byte("generation-1"), 10)
	c.Save([]byte("generation-2"), 20)
	c.Save([]byte("generation-3"), 30)
	data, idx, ok := c.Latest(f.Node(1)) // read from the other node
	if !ok || string(data) != "generation-3" || idx != 30 {
		t.Fatalf("Latest = %q,%d,%v", data, idx, ok)
	}
	if c.Cap() != 1024 {
		t.Fatalf("Cap = %d", c.Cap())
	}
}

func TestCheckpointTornWriteFallsBack(t *testing.T) {
	f := rack(t, 1)
	n := f.Node(0)
	c := NewCheckpointer(f, n, 256)
	c.Save([]byte("good-generation"), 7)
	c.Save([]byte("newer-generation"), 9)
	// Corrupt the newer generation's data in home memory: its CRC check
	// must fail and Latest must fall back to the older slot.
	newerSlot := c.slots[c.seq%2]
	f.Faults().FlipBitAtHome(f, newerSlot.Add(fabric.LineSize), 3)
	data, idx, ok := c.Latest(n)
	if !ok || string(data) != "good-generation" || idx != 7 {
		t.Fatalf("fallback = %q,%d,%v", data, idx, ok)
	}
}

func TestCheckpointOversizedPanics(t *testing.T) {
	f := rack(t, 1)
	c := NewCheckpointer(f, f.Node(0), 64)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized snapshot should panic")
		}
	}()
	c.Save(make([]byte, 65), 0)
}
