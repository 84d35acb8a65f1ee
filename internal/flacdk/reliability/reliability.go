// Package reliability provides FlacDK's fault-tolerance mechanisms (paper
// §3.2): failure prediction, fault detection and checkpointing. Per the
// paper's co-design principle, a checkpoint is published the way every
// shared structure is, data home before the header's fabric atomics, so a
// crash mid-checkpoint leaves the previous generation intact.
package reliability

import (
	"fmt"
	"hash/crc32"
	"sync"

	"flacos/internal/fabric"
)

// Region identifies a guarded range of global memory.
type Region struct {
	G    fabric.GPtr
	Size uint64
}

// Scrubber detects silent corruption in global memory: Protect records a
// CRC of a region's home contents; ScrubOnce re-reads home memory (the
// device scrub path, bypassing all caches) and reports every region whose
// contents no longer match. Mutators must Protect a region again after
// legitimately updating it.
type Scrubber struct {
	fab *fabric.Fabric

	mu   sync.Mutex
	sums map[Region]uint32
}

// NewScrubber creates a scrubber for f.
func NewScrubber(f *fabric.Fabric) *Scrubber {
	return &Scrubber{fab: f, sums: make(map[Region]uint32)}
}

func (s *Scrubber) crcOf(r Region) uint32 {
	buf := make([]byte, r.Size)
	s.fab.ReadAtHome(r.G, buf)
	return crc32.ChecksumIEEE(buf)
}

// Protect starts guarding r with its current home contents as ground
// truth, or refreshes its checksum after a legitimate update (the writer
// must have written the update back to home memory first).
func (s *Scrubber) Protect(r Region) {
	sum := s.crcOf(r)
	s.mu.Lock()
	s.sums[r] = sum
	s.mu.Unlock()
}

// ScrubOnce verifies every protected region against home memory and
// returns the corrupted ones.
func (s *Scrubber) ScrubOnce() []Region {
	s.mu.Lock()
	regions := make([]Region, 0, len(s.sums))
	want := make([]uint32, 0, len(s.sums))
	for r, sum := range s.sums {
		regions = append(regions, r)
		want = append(want, sum)
	}
	s.mu.Unlock()

	var bad []Region
	for i, r := range regions {
		if s.crcOf(r) != want[i] {
			bad = append(bad, r)
		}
	}
	return bad
}

// Repair rewrites r's home contents from known-good data and protects it
// again.
func (s *Scrubber) Repair(r Region, data []byte) {
	if uint64(len(data)) != r.Size {
		panic(fmt.Sprintf("reliability: Repair data %d != region size %d", len(data), r.Size))
	}
	s.fab.WriteAtHome(r.G, data)
	s.Protect(r)
}

// Predictor forecasts failures from the stream of correctable-error
// observations: an exponentially weighted moving average of errors per
// observation window. Rising EWMA above a threshold is the paper's
// failure-prediction signal (e.g. schedule migration off a failing DIMM
// before it dies).
type Predictor struct {
	mu   sync.Mutex
	rate float64
	obs  uint64
}

// predictorAlpha is the EWMA's smoothing factor: the weight of the newest
// window.
const predictorAlpha = 0.3

// NewPredictor creates a predictor.
func NewPredictor() *Predictor { return &Predictor{} }

// Observe feeds one window's error count.
func (p *Predictor) Observe(errors uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.obs == 0 {
		p.rate = float64(errors)
	} else {
		p.rate = predictorAlpha*float64(errors) + (1-predictorAlpha)*p.rate
	}
	p.obs++
}

// Rate returns the smoothed errors-per-window estimate.
func (p *Predictor) Rate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rate
}
