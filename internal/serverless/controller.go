package serverless

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/trace"
)

// Function is a deployed serverless function.
type Function struct {
	Name    string
	Image   string
	Handler ipc.Handler

	mu        sync.Mutex
	instances map[int]bool // node id -> warm instance present
	invokes   uint64
	coldStart uint64
}

// Instances returns how many warm instances exist.
func (f *Function) Instances() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.instances)
}

// Stats returns invocation and cold-start counts.
func (f *Function) Stats() (invokes, coldStarts uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.invokes, f.coldStart
}

// Controller is the rack-level serverless control plane of Figure 3: it
// schedules function instances across nodes, starts containers through the
// FlacOS shared page cache, and routes invocations over migration RPC so
// service chains never cross the network.
type Controller struct {
	runtimes []*NodeRuntime
	services *ipc.ServiceTable

	mu     sync.Mutex
	fns    map[string]*Function
	load   []int // warm instances per node (density tracking)
	placer func(density []int) int

	trw []atomic.Pointer[trace.Writer] // per-node flight-recorder hooks
}

// SetPlacer installs an external placement oracle consulted by pickNode
// with a snapshot of the per-node instance density. The rack wires the
// coordinated scheduler's PickNode here so container placement sees the
// global load board (and skips crashed nodes), not just this control
// plane's own density. A nil or out-of-range answer falls back to the
// built-in least-loaded choice.
func (c *Controller) SetPlacer(p func(density []int) int) {
	c.mu.Lock()
	c.placer = p
	c.mu.Unlock()
}

// NewController creates a control plane over the per-node runtimes.
func NewController(runtimes []*NodeRuntime, services *ipc.ServiceTable) *Controller {
	return &Controller{
		runtimes: runtimes,
		services: services,
		fns:      make(map[string]*Function),
		load:     make([]int, len(runtimes)),
		trw:      make([]atomic.Pointer[trace.Writer], len(runtimes)),
	}
}

// Deploy registers a function backed by an image. No instance starts until
// the first invocation (scale from zero).
func (c *Controller) Deploy(name, image string, handler ipc.Handler) (*Function, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.fns[name]; dup {
		return nil, fmt.Errorf("serverless: function %q already deployed", name)
	}
	f := &Function{Name: name, Image: image, Handler: handler, instances: make(map[int]bool)}
	c.fns[name] = f
	// The code context is shared rack-wide immediately (§3.5): any node
	// can execute the function once an instance's state exists.
	c.services.Register(name, handler)
	return f, nil
}

// pickNode returns the next placement target other than node avoid (-1
// avoids none): the installed placer's answer when one is set and sane,
// otherwise the least-loaded runtime (density-aware placement). It returns
// -1 only when avoid is the rack's one node. Callers hold c.mu.
func (c *Controller) pickNode(avoid int) int {
	if c.placer != nil {
		density := make([]int, len(c.load))
		copy(density, c.load)
		if id := c.placer(density); id >= 0 && id < len(c.runtimes) && id != avoid {
			return id
		}
	}
	best := -1
	for i := range c.load {
		if i != avoid && (best < 0 || c.load[i] < c.load[best]) {
			best = i
		}
	}
	return best
}

// ScaleUp starts one more warm instance of the function, placed on the
// least-loaded node, and returns that node's startup report. Thanks to the
// shared page cache, every instance after the rack's first skips the
// registry.
func (c *Controller) ScaleUp(name string) (StartupReport, error) {
	return c.scaleUp(name, -1)
}

// scaleUp is ScaleUp placing on any node but avoid.
func (c *Controller) scaleUp(name string, avoid int) (StartupReport, error) {
	c.mu.Lock()
	f, ok := c.fns[name]
	if !ok {
		c.mu.Unlock()
		return StartupReport{}, fmt.Errorf("serverless: function %q not deployed", name)
	}
	nodeID := c.pickNode(avoid)
	c.mu.Unlock()
	if nodeID < 0 {
		return StartupReport{}, fmt.Errorf("serverless: no node to place %q on", name)
	}

	if tw := c.tw(nodeID); tw != nil {
		tw.Emit(trace.SubServerless, trace.KPlace, 0, fnHash(name), uint64(nodeID))
	}
	rep, err := c.runtimes[nodeID].StartContainer(f.Image)
	if err != nil {
		return rep, err
	}
	c.mu.Lock()
	f.mu.Lock()
	if !f.instances[nodeID] {
		f.instances[nodeID] = true
		c.load[nodeID]++
	}
	if rep.Source == SourceRegistry {
		f.coldStart++
	}
	f.mu.Unlock()
	c.mu.Unlock()
	return rep, nil
}

// ScaleUpOn starts a warm instance on an explicit node (operator-pinned
// placement; ScaleUp picks the least-loaded node automatically).
func (c *Controller) ScaleUpOn(name string, nodeID int) (StartupReport, error) {
	c.mu.Lock()
	f, ok := c.fns[name]
	c.mu.Unlock()
	if !ok {
		return StartupReport{}, fmt.Errorf("serverless: function %q not deployed", name)
	}
	if nodeID < 0 || nodeID >= len(c.runtimes) {
		return StartupReport{}, fmt.Errorf("serverless: no node %d", nodeID)
	}
	if tw := c.tw(nodeID); tw != nil {
		tw.Emit(trace.SubServerless, trace.KPlace, 0, fnHash(name), uint64(nodeID))
	}
	rep, err := c.runtimes[nodeID].StartContainer(f.Image)
	if err != nil {
		return rep, err
	}
	c.mu.Lock()
	f.mu.Lock()
	if !f.instances[nodeID] {
		f.instances[nodeID] = true
		c.load[nodeID]++
	}
	if rep.Source == SourceRegistry {
		f.coldStart++
	}
	f.mu.Unlock()
	c.mu.Unlock()
	return rep, nil
}

// Invoke calls the function from caller, cold-starting an instance if none
// exists. The invocation itself is a migration RPC: the caller's thread
// runs the function's code against its shared state, with no cross-node
// message at all.
func (c *Controller) Invoke(caller *fabric.Node, name string, req []byte) ([]byte, error) {
	c.mu.Lock()
	f, ok := c.fns[name]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serverless: function %q not deployed", name)
	}
	return c.tracedInvoke(caller, name, len(req), func() ([]byte, error) {
		if f.Instances() == 0 {
			if _, err := c.ScaleUp(name); err != nil {
				return nil, err
			}
		}
		f.mu.Lock()
		f.invokes++
		f.mu.Unlock()
		return c.services.Call(caller, name, req)
	})
}

// InvokeChain runs a service chain: each function's output is the next
// one's input, all over shared memory (§4.1's "communication cost between
// service chains" pain point).
func (c *Controller) InvokeChain(caller *fabric.Node, names []string, req []byte) ([]byte, error) {
	cur := req
	for _, name := range names {
		out, err := c.Invoke(caller, name, cur)
		if err != nil {
			return nil, fmt.Errorf("serverless: chain stage %q: %w", name, err)
		}
		cur = out
	}
	return cur, nil
}

// EvictNode drops every warm instance on node id after placing one
// replacement instance per affected function on another node (the
// installed placer skips nodes the rack considers dead). It is the
// membership Dead event's recovery hook for the control plane: containers
// on a dead node are gone, so the density books must say so and capacity
// must come back up somewhere live. Make before break: a function's
// instance on id is dropped only once its replacement has started, so no
// observer sees it at zero replicas because of the move, and Density()[id]
// reading 0 means every replacement exists. Returns how many functions
// lost an instance. Idempotent — a second call finds nothing on the node.
func (c *Controller) EvictNode(id int) int {
	if id < 0 || id >= len(c.runtimes) {
		return 0
	}
	c.mu.Lock()
	var affected []*Function
	for _, f := range c.fns {
		f.mu.Lock()
		if f.instances[id] {
			affected = append(affected, f)
		}
		f.mu.Unlock()
	}
	c.mu.Unlock()
	evicted := 0
	for _, f := range affected {
		// Start the replacement outside the lock: scaleUp takes c.mu
		// itself, and its cold start goes through the shared page cache
		// anyway. A failed start leaves the function to scale from zero
		// on its next Invoke; the dead node's instance goes regardless.
		_, _ = c.scaleUp(f.Name, id)
		c.mu.Lock()
		f.mu.Lock()
		if f.instances[id] {
			delete(f.instances, id)
			c.load[id]--
			evicted++
		}
		f.mu.Unlock()
		c.mu.Unlock()
	}
	return evicted
}

// Density returns warm instances per node.
func (c *Controller) Density() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.load))
	copy(out, c.load)
	return out
}
