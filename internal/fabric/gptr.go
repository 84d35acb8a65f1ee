package fabric

import "fmt"

// GPtr is a global-memory address: a byte offset into the rack's shared
// global memory. GPtr 0 is the null address; the first usable byte of global
// memory starts at offset LineSize so that 0 can always mean "nil".
//
// GPtr is the only way code refers to shared state. Converting a GPtr to a
// Go pointer is deliberately impossible: shared structures are laid out in
// flat memory with explicit offsets, outside the Go garbage collector.
type GPtr uint64

// Nil is the null global pointer.
const Nil GPtr = 0

// LineSize is the cache-line size of the simulated per-node caches, in
// bytes. All cache maintenance operates at this granularity.
const LineSize = 64

// WordSize is the size of the fabric's atomic unit, in bytes. Fabric
// atomics require WordSize-aligned addresses.
const WordSize = 8

// IsNil reports whether g is the null global pointer.
func (g GPtr) IsNil() bool { return g == Nil }

// Add returns g advanced by off bytes.
func (g GPtr) Add(off uint64) GPtr { return g + GPtr(off) }

// Diff returns the byte distance g-h. It panics if h > g.
func (g GPtr) Diff(h GPtr) uint64 {
	if h > g {
		panic("fabric: GPtr.Diff underflow")
	}
	return uint64(g - h)
}

// WordAligned reports whether g is a multiple of WordSize.
func (g GPtr) WordAligned() bool { return uint64(g)%WordSize == 0 }

// Line returns the index of the cache line containing g.
func (g GPtr) Line() uint64 { return uint64(g) / LineSize }

// LineSpan returns the indexes of the first and last cache line overlapped
// by the byte range [g, g+size). It is the one range→line conversion every
// ranged cache-maintenance op uses; size must be positive (callers treat a
// zero-size range as a no-op before converting). The last byte of the
// range is g+size-1, so a range ending exactly on a line boundary does NOT
// touch the following line.
func LineSpan(g GPtr, size uint64) (first, last uint64) {
	return g.Line(), g.Add(size - 1).Line()
}

// String formats g as a hexadecimal global address.
func (g GPtr) String() string {
	if g.IsNil() {
		return "g<nil>"
	}
	return fmt.Sprintf("g0x%x", uint64(g))
}

// AlignUp64 rounds n up to the next multiple of align (a power of two).
func AlignUp64(n, align uint64) uint64 { return (n + align - 1) &^ (align - 1) }
