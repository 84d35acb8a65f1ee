// Package ds provides FlacDK's high-level concurrent data structures
// (paper §3.2, the third synchronization library level): hash table, ring
// buffers, radix tree, published line and state word, all usable
// concurrently from every node of the rack without hardware cache
// coherence.
//
// The structures CHANGE all cross-node-visible control state with fabric
// atomics (which bypass the simulated caches) and restrict plain cached
// accesses to bulk payload regions that are published with explicit
// write-back and consumed after explicit invalidation. This makes them
// correct on the non-coherent fabric by construction, and their fabric
// traffic per operation is exactly the cost model the FlacOS ablations
// measure. Learning control state need not be an atomic: the hash table
// reads its slots a cache line at a time with fabric.ReadFresh, which goes
// to home memory like an atomic but brings a whole line for less than one
// costs (HashMap's comment has the argument for why a line copy suffices).
// A published line (PubTag) needs no atomic at all: one owner publishes
// it with a write-back and readers fetch it fresh (publine.go). A state
// word (StateWord) is the other half of the control plane: a slot's
// gen|aux|owner|state packed in one word that changes only by CAS64, one
// per line of a StateTable (stateword.go).
package ds
