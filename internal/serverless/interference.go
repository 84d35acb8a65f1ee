package serverless

import (
	"fmt"
	"math"

	"flacos/internal/fabric"
)

// InterferenceModel captures §4.1's second serverless pain point:
// co-located containers contend for a node's memory bandwidth and caches,
// so a function's execution cost grows with the density of its host node.
// ExecNS is the uncontended execution cost; each co-resident instance
// beyond the first adds PenaltyFrac of it.
type InterferenceModel struct {
	ExecNS      int
	PenaltyFrac float64
}

// DefaultInterference models a memory-bound function losing ~18% per
// co-located neighbor.
func DefaultInterference() InterferenceModel {
	return InterferenceModel{ExecNS: 2_000_000, PenaltyFrac: 0.18}
}

// CostOn returns the modeled execution cost on a node hosting `density`
// warm instances (>= 1, the one running).
func (im InterferenceModel) CostOn(density int) int {
	if density < 1 {
		density = 1
	}
	return int(float64(im.ExecNS) * (1 + im.PenaltyFrac*float64(density-1)))
}

// InvokeOn runs the function's handler with the interference cost of the
// chosen host charged to the caller, routing to the LEAST-dense node that
// has a warm instance — the placement freedom FlacOS's shared state makes
// cheap (any instance can serve, state is in global memory). Returns the
// chosen host.
func (c *Controller) InvokeOn(caller *fabric.Node, name string, req []byte, im InterferenceModel) ([]byte, int, error) {
	c.mu.Lock()
	f, ok := c.fns[name]
	c.mu.Unlock()
	if !ok {
		return nil, -1, fmt.Errorf("serverless: function %q not deployed", name)
	}
	if f.Instances() == 0 {
		if _, err := c.ScaleUp(name); err != nil {
			return nil, -1, err
		}
	}
	// Route to the least-loaded node holding a warm instance.
	f.mu.Lock()
	best, bestLoad := -1, math.MaxInt
	c.mu.Lock()
	for nodeID := range f.instances {
		if c.load[nodeID] < bestLoad {
			best, bestLoad = nodeID, c.load[nodeID]
		}
	}
	c.mu.Unlock()
	f.mu.Unlock()

	caller.ChargeNS(im.CostOn(bestLoad))
	out, err := c.services.Call(caller, name, req)
	return out, best, err
}

// InvokePinned is the baseline without routing freedom: the invocation
// always executes against the instance on node 0 regardless of its
// density (the disaggregated world, where moving an invocation means
// moving its state over the network).
func (c *Controller) InvokePinned(caller *fabric.Node, name string, req []byte, im InterferenceModel) ([]byte, error) {
	c.mu.Lock()
	_, ok := c.fns[name]
	var density int
	if len(c.load) > 0 {
		density = c.load[0]
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serverless: function %q not deployed", name)
	}
	caller.ChargeNS(im.CostOn(density))
	return c.services.Call(caller, name, req)
}
