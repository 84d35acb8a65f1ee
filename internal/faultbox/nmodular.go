package faultbox

import (
	"bytes"
	"fmt"

	"flacos/internal/fabric"
)

// NModularCall executes fn N times — once per provided node, modeling
// replicated execution across the rack — and returns the majority output.
// A replica whose output disagrees (silent corruption, a flipped branch)
// is outvoted; with no majority the call fails. This is §3.6's n-modular
// execution redundancy level.
func NModularCall(nodes []*fabric.Node, fn func(n *fabric.Node) []byte) ([]byte, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("faultbox: n-modular execution needs >= 2 replicas, got %d", len(nodes))
	}
	outputs := make([][]byte, len(nodes))
	for i, n := range nodes {
		outputs[i] = fn(n)
	}
	best, bestVotes := -1, 0
	for i := range outputs {
		votes := 0
		for j := range outputs {
			if bytes.Equal(outputs[i], outputs[j]) {
				votes++
			}
		}
		if votes > bestVotes {
			best, bestVotes = i, votes
		}
	}
	if bestVotes*2 <= len(nodes) {
		return nil, fmt.Errorf("faultbox: no majority among %d replicas", len(nodes))
	}
	return outputs[best], nil
}

// HorizontalRecovery is the BASELINE fault-handling model the fault box
// replaces: application state is aggregated per subsystem, so recovering
// one application requires each subsystem to scan the state of EVERY
// application to find and repair the faulty one's pieces. The scan cost —
// proportional to total system state, not the faulty box's state — is what
// ablation C measures against Box.RecoverOn.
func HorizontalRecovery(mgr *Manager, faulty *Box, target *fabric.Node) (*Box, error) {
	mgr.mu.Lock()
	all := make([]*Box, 0, len(mgr.boxes))
	for _, b := range mgr.boxes {
		all = append(all, b)
	}
	mgr.mu.Unlock()

	page := make([]byte, 4096)
	// "Memory subsystem" pass: walk every box's pages looking for the
	// faulty application's state.
	for _, b := range all {
		if b.node == nil || b.node.Crashed() {
			continue // the dead host's pages are scanned during its restore
		}
		for _, r := range b.regions() {
			for i := uint64(0); i < r.pages; i++ {
				va := r.va + i*4096
				if b.mmu.PTEOf(va).Valid() {
					_ = b.mmu.Read(va, page)
				}
			}
		}
	}
	// Only now restore the faulty application, same as the vertical path.
	return faulty.RecoverOn(target, nil)
}
