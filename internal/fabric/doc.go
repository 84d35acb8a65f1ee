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
//   - WriteFresh is ReadFresh's write-side twin: Write, WriteBackRange and
//     InvalidateRange of one range as one call. It merges the data into
//     any resident line of the range, sends every line home and leaves
//     nothing resident; it inserts no line, so a full bounded cache keeps
//     its residents (a non-temporal store). Page frames move this way —
//     zero-filled, copied, installed and read back once with ReadFresh —
//     because the writer does not read them again through its cache. A
//     range that is read back soon, or written again before it is
//     published, belongs in the cache: use Write and WriteBackRange (or
//     InvalidateRange and Read), the retaining pairs, which other packages
//     call as ds.PublishRange and ds.ReadRange.
//   - A bounded node cache evicts first in, first out: which line leaves
//     depends on the access stream alone, never on the host.
//   - Global accesses are slower than node-local memory; the latency model
//     charges a per-operation cost to the issuing node's virtual clock.
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
// ignore the rest. A record one owner republishes is published and read
// this way as a flacdk/ds published line (ds.PubTag), whose checksum also
// rejects what a fetch sees when it overtakes the owner's next write-back.
// A commit word anywhere else in the line can be seen new beside old
// payload, and publication that spans lines needs the payload lines
// written back before a fabric atomic advances the commit word. One write
// is whole at home: memory never written reads as zero, and the whole
// lines a WriteFresh, fault injector disarmed, is first to send into a
// never-written 512-byte block of a ReserveSparse region install the block
// with them already in it, so a fetch racing it finds the block all zero
// or all written. No other write promises more than the word order above.
//
// Ranged publication. The second shape is a published range:
// ds.PublishRange writes the payload through the cache and writes it
// back, the caller's AtomicStore64, CAS64 or Swap64 commits it, and a
// reader that observed the commit reads the payload with ds.ReadRange,
// which invalidates the range and then reads it. Both shapes live in
// flacdk/ds's publine.go. Outside this package, that file and the fabric
// experiment that prices them, coherlint's raw-maintenance rule reports
// every bare WriteBackRange, InvalidateRange and FlushRange; the few
// sites whose protocol neither shape expresses carry an ignore with the
// reason.
//
// Global memory is addressed by GPtr offsets, never by Go pointers, so the
// Go garbage collector never sees shared state — the same discipline a real
// shared-memory kernel uses (and the reason a naive GC-managed port of
// kernel data structures cannot work).
package fabric
