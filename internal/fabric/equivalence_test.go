package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// InvalidateRangePerLine is the pre-batching InvalidateRange: one lock
// acquisition, but a per-line atomic Invalidates bump under the lock. It
// drops each line through the cache like the ranged path, so a bounded
// cache's eviction order forgets the line with it.
func (n *Node) InvalidateRangePerLine(g GPtr, size uint64) {
	n.checkAlive()
	if size == 0 {
		return
	}
	n.fab.checkRange(g, size)
	c := n.cache
	first, last := LineSpan(g, size)
	c.mu.Lock()
	for li := first; li <= last; li++ {
		if c.drop(li) {
			n.stats.Invalidates.Add(1)
		}
	}
	c.mu.Unlock()
	n.charge(n.fab.lat.LocalNS)
}

// FlushRangePerLine is the pre-batching FlushRange: two full passes (and
// at least lines+1 lock acquisitions) where the ranged path makes one.
func (n *Node) FlushRangePerLine(g GPtr, size uint64) {
	n.WriteBackRangePerLine(g, size)
	n.InvalidateRangePerLine(g, size)
}

// Differential equivalence: the pinned legacy per-line maintenance paths
// (legacy.go) and the ranged fast path must be observationally identical.
// Twin fabrics with identical configuration and fault seed run the same
// seeded random workload; the only difference is which maintenance
// implementation each twin uses. Afterward home memory must match byte
// for byte, every node's charged virtual time must match to the
// nanosecond, the full stats snapshots must be equal, and the caches must
// hold the same number of resident lines. Every property runs twice: on
// unlimited caches, and on caches of eqBoundedLines lines, where most
// misses evict and a dropped line must leave the eviction order with the
// cache.

const (
	eqArenaLines   = 48
	eqArenaBytes   = eqArenaLines * LineSize
	eqBoundedLines = 4
)

// eqCapacities are the cache sizes every equivalence property runs at.
var eqCapacities = []int{-1, eqBoundedLines}

type eqTwin struct {
	f *Fabric
	g GPtr
}

// eqLayout is where a twin's arena lies in home memory.
type eqLayout int

const (
	// eqFlat: in the first chunk, beside the lines other tests reserve.
	eqFlat eqLayout = iota
	// eqStraddle: the arena's first half is the last lines of one
	// home-memory chunk and its second half the first lines of the next,
	// both untouched until the workload writes them.
	eqStraddle
	// eqSparse: a ReserveSparse region, untouched, after a sparse region
	// whose blocks fill the first slab but for three, so the arena's
	// blocks straddle two slabs.
	eqSparse
)

// newEqTwin builds one twin whose node caches hold capLines lines (-1:
// unlimited), its arena laid out as layout says.
func newEqTwin(faultSeed int64, capLines int, layout eqLayout) eqTwin {
	f := New(Config{
		GlobalSize:         4 << 20,
		Nodes:              2,
		CacheCapacityLines: capLines,
		Latency:            DefaultLatency(),
		FaultSeed:          faultSeed,
	})
	switch layout {
	case eqStraddle:
		f.Reserve(chunkWords*WordSize-eqArenaBytes/2-f.Reserved(), LineSize)
	case eqSparse:
		carveBlocks(f, chunkBlocks-3)
		return eqTwin{f: f, g: f.ReserveSparse(eqArenaBytes)}
	}
	return eqTwin{f: f, g: f.Reserve(eqArenaBytes, LineSize)}
}

// carveBlocks installs n blocks of a new sparse region of f, a byte into
// each, bypassing every node.
func carveBlocks(f *Fabric, n uint64) {
	pre := f.ReserveSparse(n * blockWords * WordSize)
	for b := uint64(0); b < n; b++ {
		f.WriteAtHome(pre.Add(b*blockWords*WordSize), []byte{1})
	}
}

// armFaults sets both write-path injector rates of tw's fabric.
func (tw eqTwin) armFaults(corruptPPM, dropPPM uint64) {
	tw.f.Faults().SetCorruptionRate(corruptPPM)
	tw.f.Faults().SetDropWriteBackRate(dropPPM)
}

// randRange draws a range of 1..maxSize bytes at any offset in the arena.
func randRange(r *rand.Rand, tw eqTwin, maxSize int) (GPtr, uint64) {
	size := 1 + r.Intn(maxSize)
	return tw.g.Add(uint64(r.Intn(eqArenaBytes - size + 1))), uint64(size)
}

// opRecord is one op event a node's hook saw.
type opRecord struct {
	node       int
	kind       OpKind
	arg0, arg1 uint64
}

// recordOps installs a hook on every node of tw that appends each op event
// to *log, in the order the events fire.
func (tw eqTwin) recordOps(log *[]opRecord) {
	for i := 0; i < tw.f.NumNodes(); i++ {
		tw.f.Node(i).SetOpHook(func(k OpKind, arg0, arg1 uint64) {
			*log = append(*log, opRecord{i, k, arg0, arg1})
		})
	}
}

// sameOps reports where event log b first differs from a.
func sameOps(t *testing.T, what string, a, b []opRecord) {
	t.Helper()
	if slices.Equal(a, b) {
		return
	}
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	t.Errorf("%s: op events diverge at event %d of %d vs %d", what, i, len(a), len(b))
}

// sameTwins reports every way twin b's arena differs from twin a's: home
// memory byte for byte, the chunks installed and the blocks carved, in
// order; each node's virtual time, full stats snapshot, resident line
// count and cached copy of every arena line.
func sameTwins(t *testing.T, what string, a, b eqTwin) {
	t.Helper()
	sameArena(t, what, a.f, b.f, a.g, eqArenaBytes)
}

// sameArena is sameTwins for an arena of size bytes at g in both fabrics.
func sameArena(t *testing.T, what string, a, b *Fabric, g GPtr, size uint64) {
	t.Helper()
	ah := make([]byte, size)
	bh := make([]byte, size)
	a.ReadAtHome(g, ah)
	b.ReadAtHome(g, bh)
	if !bytes.Equal(ah, bh) {
		i := 0
		for ah[i] == bh[i] {
			i++
		}
		t.Errorf("%s: home memory diverges at byte %d (line %d): %#x vs %#x", what, i, i/LineSize, ah[i], bh[i])
	}
	if ac, bc := installedChunks(a), installedChunks(b); ac != bc {
		t.Errorf("%s: %d vs %d chunks installed", what, ac, bc)
	}
	if ab, bb := carvedBlocks(a), carvedBlocks(b); !slices.Equal(ab, bb) {
		t.Errorf("%s: %d vs %d blocks installed, or carved in another order", what, installedBlocks(a), installedBlocks(b))
	}
	first, last := LineSpan(g, size)
	for i := 0; i < a.NumNodes(); i++ {
		an, bn := a.Node(i), b.Node(i)
		if av, bv := an.VirtualNS(), bn.VirtualNS(); av != bv {
			t.Errorf("%s node %d: virtual time diverges: %d ns vs %d ns", what, i, av, bv)
		}
		if as, bs := an.Stats(), bn.Stats(); as != bs {
			t.Errorf("%s node %d: stats diverge:\n%+v\n%+v", what, i, as, bs)
		}
		if ar, br := an.cache.resident(), bn.cache.resident(); ar != br {
			t.Errorf("%s node %d: resident lines diverge: %d vs %d", what, i, ar, br)
		}
		for li := first; li <= last; li++ {
			if al, bl := cachedLine(an, li), cachedLine(bn, li); al != bl {
				t.Errorf("%s node %d: cached line %d diverges: %+v vs %+v", what, i, li-first, al, bl)
				break
			}
		}
	}
}

// lineCopy is what a node's cache holds of one line.
type lineCopy struct {
	resident, dirty bool
	data            [LineSize]byte
}

// cachedLine returns n's copy of line li, the zero lineCopy if li is not
// resident.
func cachedLine(n *Node, li uint64) lineCopy {
	n.cache.mu.Lock()
	defer n.cache.mu.Unlock()
	if ln := n.cache.lookup(li); ln != nil {
		return lineCopy{true, ln.dirty, ln.data}
	}
	return lineCopy{}
}

// carvedBlocks lists every directory entry of f's sparse regions, MiB by
// MiB: which blocks are installed and the order they were carved in.
func carvedBlocks(f *Fabric) []uint32 {
	s := f.sparse.Load()
	if s == nil {
		return nil
	}
	var out []uint32
	for i := range s.dirs {
		if d := s.dirs[i].Load(); d != nil {
			for b := range d.blocks {
				out = append(out, d.blocks[b].Load())
			}
		}
	}
	return out
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

// diffTwins runs one seeded workload on a legacy and a ranged twin whose
// caches hold capLines lines (-1: unlimited) and reports every difference.
func diffTwins(t *testing.T, seed int64, capLines int, corruptPPM, dropPPM uint64, layout eqLayout) {
	t.Helper()
	legacy := newEqTwin(seed, capLines, layout)
	ranged := newEqTwin(seed, capLines, layout)
	legacy.armFaults(corruptPPM, dropPPM)
	ranged.armFaults(corruptPPM, dropPPM)

	runEqWorkload(legacy, rand.New(rand.NewSource(seed)), 400, false)
	runEqWorkload(ranged, rand.New(rand.NewSource(seed)), 400, true)
	sameTwins(t, fmt.Sprintf("seed %d, cache %d lines, legacy vs ranged", seed, capLines), legacy, ranged)
}

func TestRangedEquivalentToPerLine(t *testing.T) {
	for _, capLines := range eqCapacities {
		check := func(seed int64) bool {
			diffTwins(t, seed, capLines, 0, 0, eqFlat)
			return !t.Failed()
		}
		cfg := &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(7))}
		if err := quick.Check(check, cfg); err != nil {
			t.Error(err)
		}
	}
}

// With the injector armed the paths must STILL agree: the harvest streams
// lines home in ascending order exactly like the per-line loop walked
// them, so both twins consume the same PRNG draw sequence and corrupt or
// drop the same lines.
func TestRangedEquivalentToPerLineWithFaults(t *testing.T) {
	for _, capLines := range eqCapacities {
		check := func(seed int64) bool {
			// Rates high enough that a 400-op workload reliably takes hits.
			diffTwins(t, seed, capLines, 20_000, 50_000, eqFlat)
			return !t.Failed()
		}
		cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(11))}
		if err := quick.Check(check, cfg); err != nil {
			t.Error(err)
		}
	}
}

// The same two checks over an arena that starts in an untouched chunk and
// straddles a chunk boundary: the first write into each chunk installs it,
// zero lines written back into an untouched chunk store nothing, and none
// of that may show in home memory, virtual time, stats or fault draws.
func TestRangedEquivalentToPerLineAcrossChunks(t *testing.T) {
	for _, capLines := range eqCapacities {
		for _, rates := range [][2]uint64{{0, 0}, {20_000, 50_000}} {
			check := func(seed int64) bool {
				diffTwins(t, seed, capLines, rates[0], rates[1], eqStraddle)
				return !t.Failed()
			}
			cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(13))}
			if err := quick.Check(check, cfg); err != nil {
				t.Error(err)
			}
		}
	}
}
