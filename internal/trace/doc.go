// Package trace is FlacOS's rack-wide flight recorder: an always-on,
// low-overhead event log whose buffers live in the offset-addressed
// global-memory arena, so a surviving node can extract and merge a
// crashed node's pre-crash events — post-mortem debugging across the
// fabric, which is exactly what a partially-shared OS makes possible.
//
// Each node owns a fixed-size ring of event records, each one ds
// published line (timestamp, subsystem/kind/node/flags and two operand
// words, committed under the event's ticket). The writer never blocks
// and never takes a lock: it claims a ticket with a node-local atomic
// and publishes the line with one full-line store and one explicit
// write-back. A node that crashes mid-emit loses at most the records it
// had not yet written back; everything published survives in home
// memory.
//
// Collecting reads a ring without consuming it, so a ring keeps its
// oldest events: once it is full, new events are dropped and counted —
// the hot path never waits for a reader.
//
// The Collector snapshots every node's ring through any live node, one
// fresh line fetch per slot whose checksum rejects a slot caught
// mid-overwrite or corrupted by fault injection, merges all nodes by
// virtual timestamp,
// and renders a human-readable timeline or a Chrome trace_event JSON
// blob (open via chrome://tracing or https://ui.perfetto.dev).
//
// Timestamps come from the fabric's virtual-latency clock (Node
// VirtualNS); when the fabric runs with LatencyOff the recorder falls
// back to wall-clock nanoseconds since the recorder was created, so
// traces stay ordered in unit tests too.
package trace
