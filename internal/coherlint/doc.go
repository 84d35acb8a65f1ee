// Package coherlint statically enforces the coherence discipline every
// arena subsystem hand-follows on the non-coherent fabric. The rules it
// mechanizes are the unwritten contract of flacdk/ds, redis.RackStore,
// the trace rings, the fs journal and memsys:
//
//  1. arena-pointer-escape: never store a Go pointer (or anything
//     containing one) into the offset-addressed global arena. Another
//     node — or a restarted incarnation of this one — cannot interpret a
//     host pointer. Arena-resident layouts are declared with a
//     "//flac:shared" annotation and must be flat (no pointers, slices,
//     maps, strings, channels, funcs or interfaces anywhere in them).
//
//  2. publish-without-writeback: a fabric atomic store/CAS/swap is a
//     PUBLICATION — the moment another node can observe the data it
//     guards. Every plain (cached) write performed since the last
//     write-back must be pushed to home memory with WriteBackRange /
//     WriteBackAll / FlushRange / FlushAll BEFORE the publishing atomic,
//     or a remote reader can follow the pointer into bytes that only
//     exist in the writer's private cache.
//
//  3. read-without-invalidate: after a fabric atomic load (the acquire
//     of a publication), plain cached reads see whatever stale lines the
//     reader's cache happens to hold. An InvalidateRange / InvalidateAll
//     / FlushRange / FlushAll must dominate the first plain read that
//     follows an atomic load. ReadFresh carries its own invalidate, so
//     it is never the stale read; but what it reads may be a publication
//     word, so it opens the same window an atomic load does.
//
//  4. grace-period-retention: an arena offset handed to a quiescence
//     Retire (or freed directly with an allocator Free) may be reused as
//     soon as the grace period expires; using the offset afterwards —
//     directly or by capturing it in a closure that outlives the call —
//     is a use-after-free against the arena.
//
// Recognition is driven by the fabric package's API (methods on
// fabric.Node), the quiescence/alloc reclamation entry points, and two
// source annotations on arena-layout types:
//
//	//flac:shared                      the type's bytes live in the arena
//	//flac:published-by=AtomicStore64  which fabric atomic publishes it
//
// A diagnostic that is a understood-and-accepted exception (for example
// the torture harness's deliberately-broken sync paths) is suppressed
// with a "//flacvet:ignore <rule> <reason>" comment on, or immediately
// above, the offending line.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) so analyzers can migrate to the
// upstream driver wholesale if the dependency ever becomes available;
// the build environment here is hermetic, so the framework is
// implemented on the standard library's go/ast + go/types alone.
// cmd/flacvet is the command-line driver.
package coherlint
