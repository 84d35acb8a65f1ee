// Package fabric simulates a memory-interconnected rack: a byte-addressable
// global memory shared by every node, reachable by load/store and fabric
// atomics, but WITHOUT hardware cache coherence.
//
// The simulation models the contract that CXL/HCCS-class interconnects give
// software (per the FlacOS paper, HotStorage '25):
//
//   - Every node may load/store any global address, but plain accesses go
//     through a per-node software-simulated cache of 64-byte lines. A node
//     that cached a line keeps reading its (possibly stale) copy until it
//     explicitly invalidates; a node's stores stay in its cache until it
//     explicitly writes them back. There is no snooping between nodes.
//   - Fabric atomics (AtomicLoad64, AtomicStore64, CAS64, Add64, Swap64)
//     bypass the caches entirely and act on home memory, like non-cacheable
//     fabric atomics. Mixing plain and atomic accesses to the same word
//     requires an explicit invalidate before the plain load observes the
//     atomic's effect. ReadFresh is that pair as one operation for a reader
//     that will not look again: it drops the range from the cache, copies
//     it from home memory line by line and leaves nothing resident — the
//     way to LEARN a word that atomics change (an index slot, a
//     reservation) for the price of a line fetch instead of an atomic's
//     round trip to the device.
//   - A bounded node cache evicts first in, first out: which line leaves
//     depends on the access stream alone, never on the host.
//   - Global accesses are slower than node-local memory; the latency model
//     charges a per-operation cost (optionally as a real calibrated spin so
//     wall-clock benchmarks reproduce the paper's shapes).
//   - Faults happen: bit flips in home memory, node crashes that discard all
//     not-yet-written-back cache lines, and degraded links. The reliability
//     layers above detect and recover from these.
//
// Single-line publication. A cache line does NOT move between a cache and
// home memory atomically: a write-back stores the line's words one by one
// in ascending order, a fetch loads them one by one in descending order,
// and nothing locks the line, so a fetch can overtake a stalled write-back
// of the same line. The two orders together give one sound way to publish
// a line with plain stores and a write-back: put the commit word (a
// sequence number that changes with every publication) in the line's LAST
// word. A fetch reads that word first and the write-back stores it last,
// so a reader that sees the new commit word sees every other word at least
// as new as that write-back left it; a reader that sees the old one must
// ignore the rest. (An owner that may republish while a reader is still
// looking needs a check on top: membership and health re-read the
// sequence and checksum the record.) A commit word anywhere else in the
// line can be seen new beside old payload, and publication that spans
// lines needs the payload lines written back before a fabric atomic
// advances the commit word.
//
// Global memory is addressed by GPtr offsets, never by Go pointers, so the
// Go garbage collector never sees shared state — the same discipline a real
// shared-memory kernel uses (and the reason a naive GC-managed port of
// kernel data structures cannot work).
package fabric
