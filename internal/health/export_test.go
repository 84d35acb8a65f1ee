package health

import "flacos/internal/fabric"

// VerdictInfo is one slot's decoded health control state (debug, tests).
type VerdictInfo struct {
	Slot       int
	State      DetectState
	Node       int
	Generation uint64
}

// Verdicts reads every slot's health control word through node n.
func (l *Layer) Verdicts(n *fabric.Node) []VerdictInfo {
	out := make([]VerdictInfo, l.mem.Slots())
	for i := range out {
		w := l.ctl.Load(n, i)
		out[i] = VerdictInfo{
			Slot:       i,
			State:      w.State(),
			Node:       w.Owner(),
			Generation: w.Gen(),
		}
	}
	return out
}
