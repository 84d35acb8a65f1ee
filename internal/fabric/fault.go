package fabric

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// FaultInjector produces the fault classes the paper says a rack-scale
// shared memory must survive: silent bit corruption (shrinking transistor
// geometry, manufacturing defects), lost updates (a write-back that never
// reaches home across the multi-hop fabric), and whole-node failures
// (handled by Node.Crash). All randomness is seeded and mutex-serialized so
// fault scenarios replay deterministically.
type FaultInjector struct {
	mu  sync.Mutex
	rng *rand.Rand

	// corruptRate is the probability that a word written back to home
	// memory has one bit flipped, expressed in flips per million words.
	corruptRate atomic.Uint64
	// dropRate is the probability that an entire line write-back is
	// silently dropped, in drops per million write-backs.
	dropRate atomic.Uint64

	bitFlips     atomic.Uint64
	droppedLines atomic.Uint64
}

func newFaultInjector(seed int64) *FaultInjector {
	if seed == 0 {
		seed = 1
	}
	return &FaultInjector{rng: rand.New(rand.NewSource(seed))}
}

// SetCorruptionRate sets the per-word bit-flip probability on the write
// path, in parts per million. Zero disables corruption.
func (fi *FaultInjector) SetCorruptionRate(ppm uint64) { fi.corruptRate.Store(ppm) }

// SetDropWriteBackRate sets the probability that a line write-back is
// silently lost, in parts per million. Zero disables drops.
func (fi *FaultInjector) SetDropWriteBackRate(ppm uint64) { fi.dropRate.Store(ppm) }

// BitFlips returns how many bits the injector has flipped so far.
func (fi *FaultInjector) BitFlips() uint64 { return fi.bitFlips.Load() }

// DroppedWriteBacks returns how many line write-backs were lost.
func (fi *FaultInjector) DroppedWriteBacks() uint64 { return fi.droppedLines.Load() }

func (fi *FaultInjector) roll(ppm uint64) bool {
	if ppm == 0 {
		return false
	}
	fi.mu.Lock()
	hit := uint64(fi.rng.Intn(1_000_000)) < ppm
	fi.mu.Unlock()
	return hit
}

// corruptOnWrite possibly flips one random bit of v on its way to home
// memory.
func (fi *FaultInjector) corruptOnWrite(v uint64) uint64 {
	if !fi.roll(fi.corruptRate.Load()) {
		return v
	}
	fi.mu.Lock()
	bit := uint(fi.rng.Intn(64))
	fi.mu.Unlock()
	fi.bitFlips.Add(1)
	return v ^ (1 << bit)
}

// dropWriteBack decides whether an entire line write-back is lost.
func (fi *FaultInjector) dropWriteBack() bool {
	if fi.roll(fi.dropRate.Load()) {
		fi.droppedLines.Add(1)
		return true
	}
	return false
}

// FlipBitAtHome deterministically flips bit (0-63) of the aligned word at g
// in home memory, modeling an at-rest memory error. Tests and the fault-box
// experiments use it to place faults precisely.
func (fi *FaultInjector) FlipBitAtHome(f *Fabric, g GPtr, bit uint) {
	f.checkRange(g, WordSize)
	if !g.WordAligned() {
		panic("fabric: FlipBitAtHome requires word alignment")
	}
	p := f.homeWord(uint64(g) / WordSize)
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old^(1<<bit)) {
			fi.bitFlips.Add(1)
			return
		}
	}
}
