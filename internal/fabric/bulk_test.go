package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// bulkAccessPerLine is bulkAccess as it was before a transfer took the
// cache lock once: one lineAccess per line — lock, fill, unlock, write a
// dirty victim home and fire its OpWriteBack — then the line's OpMiss. It
// is the oracle the one-lock transfer is checked against.
func (n *Node) bulkAccessPerLine(g GPtr, total uint64, write bool, fn func(d *[LineSize]byte, off, done, chunk uint64)) {
	n.checkAlive()
	n.fab.checkRange(g, total)
	hits, misses := 0, 0
	done := uint64(0)
	for done < total {
		cur := g.Add(done)
		chunk := min(LineSize-uint64(cur)%LineSize, total-done)
		if n.lineAccess(cur, chunk, write, func(d *[LineSize]byte, off uint64) {
			fn(d, off, done, chunk)
		}) {
			misses++
			if n.hooked.Load() {
				n.fireOp(OpMiss, cur.Line(), 0)
			}
		} else {
			hits++
		}
		done += chunk
	}
	agg := hits * n.fab.lat.LocalNS
	if misses > 0 {
		n.stats.Misses.Add(uint64(misses))
		agg += n.globalCost(misses)
	}
	if hits > 0 {
		n.stats.Hits.Add(uint64(hits))
	}
	n.charge(agg)
}

// readPerLine and writePerLine are Read and Write over the oracle.
func (n *Node) readPerLine(g GPtr, buf []byte) {
	n.bulkAccessPerLine(g, uint64(len(buf)), false, func(d *[LineSize]byte, off, done, chunk uint64) {
		copy(buf[done:done+chunk], d[off:off+chunk])
	})
	n.stats.BulkBytesRead.Add(uint64(len(buf)))
}

func (n *Node) writePerLine(g GPtr, data []byte) {
	n.bulkAccessPerLine(g, uint64(len(data)), true, func(d *[LineSize]byte, off, done, chunk uint64) {
		copy(d[off:off+chunk], data[done:done+chunk])
	})
	n.stats.BulkBytesWritten.Add(uint64(len(data)))
}

// bulkCapLines bounds the twins' caches far below the arena, so most bulk
// misses evict and many victims are dirty; a transfer can be wider than
// the cache and evict its own earlier lines.
const bulkCapLines = 8

// runBulkWorkload applies ops random operations drawn from r to tw and
// returns every byte its bulk reads returned; oneLock selects Read and
// Write, false the per-line oracle.
func runBulkWorkload(tw eqTwin, r *rand.Rand, ops int, oneLock bool) []byte {
	var seen []byte
	for i := 0; i < ops; i++ {
		n := tw.f.Node(r.Intn(tw.f.NumNodes()))
		off := uint64(r.Intn(eqArenaBytes-8)) &^ 7
		switch k := r.Intn(100); {
		case k < 20:
			n.Store64(tw.g.Add(off), r.Uint64())
		case k < 30:
			n.Load64(tw.g.Add(off))
		case k < 55:
			g, size := randRange(r, tw, 12*LineSize)
			b := make([]byte, size)
			if oneLock {
				n.Read(g, b)
			} else {
				n.readPerLine(g, b)
			}
			seen = append(seen, b...)
		case k < 80:
			g, size := randRange(r, tw, 12*LineSize)
			b := make([]byte, size)
			r.Read(b)
			if oneLock {
				n.Write(g, b)
			} else {
				n.writePerLine(g, b)
			}
		case k < 87:
			n.WriteBackRange(randRange(r, tw, eqArenaBytes))
		case k < 94:
			n.InvalidateRange(randRange(r, tw, eqArenaBytes))
		default:
			n.Add64(tw.g.Add(off), uint64(r.Intn(1000)))
		}
	}
	return seen
}

func checkBulkTwins(t *testing.T, randSeed int64, corruptPPM, dropPPM uint64) {
	check := func(seed int64) bool {
		oracle := newEqTwin(seed, bulkCapLines, eqFlat)
		oneLock := newEqTwin(seed, bulkCapLines, eqFlat)
		oracle.armFaults(corruptPPM, dropPPM)
		oneLock.armFaults(corruptPPM, dropPPM)
		var oracleOps, oneLockOps []opRecord
		oracle.recordOps(&oracleOps)
		oneLock.recordOps(&oneLockOps)

		oracleSeen := runBulkWorkload(oracle, rand.New(rand.NewSource(seed)), 300, false)
		oneLockSeen := runBulkWorkload(oneLock, rand.New(rand.NewSource(seed)), 300, true)
		what := fmt.Sprintf("seed %d, per-line vs one-lock transfers", seed)
		if !bytes.Equal(oracleSeen, oneLockSeen) {
			t.Errorf("%s: bulk reads returned different bytes", what)
		}
		sameTwins(t, what, oracle, oneLock)
		sameOps(t, what, oracleOps, oneLockOps)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(randSeed))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestBulkAccessEquivalentToPerLine: Read and Write under one lock hold
// against the per-line oracle on a bounded cache full of dirty victims —
// the same bytes read, home memory, stats, virtual time, resident lines
// and op events in the same order — with the injector disarmed and armed
// (victims go home in the oracle's order, so the draws match).
func TestBulkAccessEquivalentToPerLine(t *testing.T) {
	checkBulkTwins(t, 31, 0, 0)
	checkBulkTwins(t, 37, 20_000, 50_000)
}

// TestBulkAccessReadSeesItsOwnDirtyVictim scripts the case that fixes when
// a victim goes home: the first line of a Read misses and evicts a dirty
// line that the same Read fetches next. The victim must be home by then,
// or the Read returns home's stale bytes for it.
func TestBulkAccessReadSeesItsOwnDirtyVictim(t *testing.T) {
	for _, oneLock := range []bool{false, true} {
		f := New(Config{GlobalSize: 1 << 20, Nodes: 1, CacheCapacityLines: 4})
		n := f.Node(0)
		g := f.Reserve(16*LineSize, LineSize)
		n.Store64(g.Add(LineSize), 0xD1D1) // line 1: dirty, resident longest
		for l := uint64(10); l < 13; l++ {
			n.Load64(g.Add(l * LineSize)) // the cache is full
		}
		buf := make([]byte, 2*LineSize) // line 0 misses and evicts line 1, then line 1 misses
		if oneLock {
			n.Read(g, buf)
		} else {
			n.readPerLine(g, buf)
		}
		if buf[LineSize] != 0xD1 || buf[LineSize+1] != 0xD1 {
			t.Errorf("oneLock=%v: the Read returned %#x %#x for its own evicted dirty line, want 0xd1 0xd1",
				oneLock, buf[LineSize], buf[LineSize+1])
		}
	}
}
