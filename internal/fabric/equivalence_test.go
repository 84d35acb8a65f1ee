package fabric

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential equivalence: the pinned legacy per-line maintenance paths
// (legacy.go) and the ranged fast path must be observationally identical.
// Twin fabrics with identical configuration and fault seed run the same
// seeded random workload; the only difference is which maintenance
// implementation each twin uses. Afterward home memory must match byte
// for byte, every node's charged virtual time must match to the
// nanosecond, the full stats snapshots must be equal, and the caches must
// hold the same number of resident lines.
//
// Caches are unlimited here on purpose: capacity eviction picks its
// victim in map order, which is the one nondeterminism that would make
// even two runs of the SAME implementation diverge.

const (
	eqArenaLines = 48
	eqArenaBytes = eqArenaLines * LineSize
)

type eqTwin struct {
	f *Fabric
	g GPtr
}

// newEqTwin builds one twin. With straddle set, the arena's first half is
// the last lines of one home-memory chunk and its second half the first
// lines of the next, both untouched until the workload writes them.
func newEqTwin(faultSeed int64, straddle bool) eqTwin {
	f := New(Config{
		GlobalSize:         4 << 20,
		Nodes:              2,
		CacheCapacityLines: -1,
		Latency:            DefaultLatency(),
		FaultSeed:          faultSeed,
	})
	if straddle {
		f.Reserve(chunkWords*WordSize-eqArenaBytes/2-f.Reserved(), LineSize)
	}
	return eqTwin{f: f, g: f.Reserve(eqArenaBytes, LineSize)}
}

// runEqWorkload applies ops random operations drawn from r to tw. ranged
// selects the new batched maintenance paths; false selects the pinned
// legacy per-line ones. Every random draw happens in the same order on
// both twins because the caller hands each the same seed.
func runEqWorkload(tw eqTwin, r *rand.Rand, ops int, ranged bool) {
	for i := 0; i < ops; i++ {
		n := tw.f.Node(r.Intn(tw.f.NumNodes()))
		off := uint64(r.Intn(eqArenaBytes-8)) &^ 7
		switch k := r.Intn(100); {
		case k < 25:
			n.Store64(tw.g.Add(off), r.Uint64())
		case k < 40:
			n.Load64(tw.g.Add(off))
		case k < 50:
			b := make([]byte, 1+r.Intn(200))
			if r.Intn(3) > 0 {
				r.Read(b)
			} // else zeros: whole lines of them written back over old data

			start := uint64(r.Intn(eqArenaBytes - len(b)))
			n.Write(tw.g.Add(start), b)
		case k < 65:
			start := uint64(r.Intn(eqArenaBytes - 1))
			size := 1 + uint64(r.Intn(int(eqArenaBytes-start)))
			if ranged {
				n.WriteBackRange(tw.g.Add(start), size)
			} else {
				n.WriteBackRangePerLine(tw.g.Add(start), size)
			}
		case k < 75:
			start := uint64(r.Intn(eqArenaBytes - 1))
			size := 1 + uint64(r.Intn(int(eqArenaBytes-start)))
			if ranged {
				n.InvalidateRange(tw.g.Add(start), size)
			} else {
				n.InvalidateRangePerLine(tw.g.Add(start), size)
			}
		case k < 85:
			start := uint64(r.Intn(eqArenaBytes - 1))
			size := 1 + uint64(r.Intn(int(eqArenaBytes-start)))
			if ranged {
				n.FlushRange(tw.g.Add(start), size)
			} else {
				n.FlushRangePerLine(tw.g.Add(start), size)
			}
		case k < 92:
			n.Add64(tw.g.Add(off), uint64(r.Intn(1000)))
		default:
			n.Fence()
		}
	}
}

func diffTwins(t *testing.T, seed int64, corruptPPM, dropPPM uint64, straddle bool) {
	t.Helper()
	legacy := newEqTwin(seed, straddle)
	ranged := newEqTwin(seed, straddle)
	legacy.f.Faults().SetCorruptionRate(corruptPPM)
	ranged.f.Faults().SetCorruptionRate(corruptPPM)
	legacy.f.Faults().SetDropWriteBackRate(dropPPM)
	ranged.f.Faults().SetDropWriteBackRate(dropPPM)

	runEqWorkload(legacy, rand.New(rand.NewSource(seed)), 400, false)
	runEqWorkload(ranged, rand.New(rand.NewSource(seed)), 400, true)

	lh := make([]byte, eqArenaBytes)
	rh := make([]byte, eqArenaBytes)
	legacy.f.ReadAtHome(legacy.g, lh)
	ranged.f.ReadAtHome(ranged.g, rh)
	if !bytes.Equal(lh, rh) {
		for i := range lh {
			if lh[i] != rh[i] {
				t.Errorf("seed %d: home memory diverges at byte %d (line %d): legacy %#x, ranged %#x",
					seed, i, i/LineSize, lh[i], rh[i])
				break
			}
		}
	}
	for i := 0; i < legacy.f.NumNodes(); i++ {
		ln, rn := legacy.f.Node(i), ranged.f.Node(i)
		if lv, rv := ln.VirtualNS(), rn.VirtualNS(); lv != rv {
			t.Errorf("seed %d node %d: virtual time diverges: legacy %d ns, ranged %d ns", seed, i, lv, rv)
		}
		if ls, rs := ln.Stats(), rn.Stats(); ls != rs {
			t.Errorf("seed %d node %d: stats diverge:\nlegacy %+v\nranged %+v", seed, i, ls, rs)
		}
		if lr, rr := ln.cache.resident(), rn.cache.resident(); lr != rr {
			t.Errorf("seed %d node %d: resident lines diverge: legacy %d, ranged %d", seed, i, lr, rr)
		}
	}
}

func TestRangedEquivalentToPerLine(t *testing.T) {
	check := func(seed int64) bool {
		diffTwins(t, seed, 0, 0, false)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// With the injector armed the paths must STILL agree: the harvest streams
// lines home in ascending order exactly like the per-line loop walked
// them, so both twins consume the same PRNG draw sequence and corrupt or
// drop the same lines.
func TestRangedEquivalentToPerLineWithFaults(t *testing.T) {
	check := func(seed int64) bool {
		// Rates high enough that a 400-op workload reliably takes hits.
		diffTwins(t, seed, 20_000, 50_000, false)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// The same two checks over an arena that starts in an untouched chunk and
// straddles a chunk boundary: the first write into each chunk installs it,
// zero lines written back into an untouched chunk store nothing, and none
// of that may show in home memory, virtual time, stats or fault draws.
func TestRangedEquivalentToPerLineAcrossChunks(t *testing.T) {
	for _, rates := range [][2]uint64{{0, 0}, {20_000, 50_000}} {
		check := func(seed int64) bool {
			diffTwins(t, seed, rates[0], rates[1], true)
			return !t.Failed()
		}
		cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(13))}
		if err := quick.Check(check, cfg); err != nil {
			t.Error(err)
		}
	}
}
