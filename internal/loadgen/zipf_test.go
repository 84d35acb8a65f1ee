package loadgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// rankHash returns the FNV-64a hash of the first draws ranks of z, each
// written as a little-endian uint32.
func rankHash(z *Zipf, draws int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for i := 0; i < draws; i++ {
		binary.LittleEndian.PutUint32(b[:], uint32(z.Next()))
		h.Write(b[:])
	}
	return h.Sum64()
}

// Golden: the rank stream of every sampler a program builds, pinned by
// hash. A change to the sampler that moves one rank of the first 100,000
// moves a bench input, a virt_* figure or a tracked BENCH_*.json row, and
// fails here first.
func TestZipfGoldenRanks(t *testing.T) {
	for _, g := range []struct {
		name string
		seed uint64
		n    int
		s    float64
		want uint64
	}{
		{"bench rackstore-* seed 1", 1, 32768, 0.99, 0xac5f95de2896378},
		{"bench rackstore-* seed 7", 7, 32768, 0.99, 0xbba96ec27fe7d250},
		{"bench mem-tier seed 1", 1, 65536, 0.99, 0x8f206a136ada82e4},
		{"bench mem-tier seed 7", 7, 65536, 0.99, 0xe0e5efd052cf3e76},
		{"tiering quick span", 1, 1 << 14, 0.99, 0x9425c664d873a56b},
		{"tiering full span", 1, 1 << 20, 0.99, 0x5f6865836bcfd575},
		{"redisscale worker 0", 1, 64, 0.99, 0x9013b22cdcee6279},
	} {
		if got := rankHash(NewZipf(NewRand(g.seed), g.n, g.s), 100000); got != g.want {
			t.Errorf("%s (seed %d, n %d, s %v): rank hash %#x, want %#x", g.name, g.seed, g.n, g.s, got, g.want)
		}
	}
}

// Exactness: Next returns, draw for draw, the rank a binary search of the
// whole CDF returns for the same u, at keyspaces from 1 to 1<<20 (a
// power of two, where m = n, and not) and skews from uniform to steep.
// Random draws never land on a boundary, so up to n = 65536 every bucket
// edge j/m and every CDF value, and the float just below each, is checked
// too. One sampler per (n, s) serves its three seeds, so a 1<<20 CDF is
// built five times, not fifteen.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	const draws = 10000
	for _, n := range []int{1, 2, 3, 5, 1000, 32768, 65536, 100000, 1 << 20} {
		for _, s := range []float64{0, 0.5, 0.99, 1.2, 3} {
			z := NewZipf(nil, n, s)
			for _, seed := range []uint64{1, 7, 0x9e3779b97f4a7c15} {
				z.r = NewRand(seed)
				ref := NewRand(seed)
				for i := 0; i < draws; i++ {
					u := ref.Float64()
					if got, want := z.Next(), z.searchCDF(u); got != want {
						t.Fatalf("n=%d s=%v seed=%d draw %d (u=%v): Next %d, full search %d", n, s, seed, i, u, got, want)
					}
				}
			}
			if n > 65536 {
				continue
			}
			check := func(u float64) {
				if u >= 1 {
					return
				}
				if got, want := z.rank(u), z.searchCDF(u); got != want {
					t.Fatalf("n=%d s=%v u=%v: guided search %d, full search %d", n, s, u, got, want)
				}
			}
			m := len(z.guide) - 1
			for j := 0; j < m; j++ {
				u := float64(j) / float64(m)
				check(u)
				check(math.Nextafter(u, 0))
			}
			for _, c := range z.cdf {
				check(c)
				check(math.Nextafter(c, 0))
			}
		}
	}
}

// Next allocates nothing: bench and tiering draw every input through it.
func TestZipfNextAllocatesNothing(t *testing.T) {
	z := NewZipf(NewRand(1), 32768, 0.99)
	if a := testing.AllocsPerRun(1000, func() { z.Next() }); a != 0 {
		t.Fatalf("Next: %v allocations per draw, want 0", a)
	}
}

// BenchmarkZipfNext is the cost of one draw at the bench's rackstore-*
// keyspace, its mem-tier span and the full tiering span.
func BenchmarkZipfNext(b *testing.B) {
	for _, n := range []int{32768, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipf(NewRand(1), n, 0.99)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z.Next()
			}
		})
	}
}
