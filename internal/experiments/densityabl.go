package experiments

import (
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/fs"
	"flacos/internal/ipc"
	"flacos/internal/serverless"
)

// DensityConfig parameterizes ablation F.
type DensityConfig struct {
	Invokes int
}

// DefaultDensity models a hot node (densityFillers co-located
// containers) next to an idle one.
func DefaultDensity() DensityConfig { return DensityConfig{Invokes: 500} }

// QuickDensity is the CI-sized run.
func QuickDensity() DensityConfig { return DensityConfig{Invokes: 100} }

// densityFillers is the number of background containers packed on node 0.
const densityFillers = 8

// DensityAblation quantifies §4.1's interference pain point and Figure 3's
// density benefit: when every instance's state lives in global memory, the
// control plane may route an invocation to ANY warm instance, so it picks
// the least-loaded host; a pinned invocation (the disaggregated baseline,
// where state gravity ties the function to one node) eats the hot node's
// interference.
func DensityAblation(cfg DensityConfig) *Result {
	res := newResult("Ablation F: density-aware routing vs pinned placement under interference",
		"strategy", "host density", "mean invoke")
	f := fabric.New(fabric.Config{GlobalSize: 128 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	dev := fs.NewMemDev(50_000, 60_000)
	fsys := fs.New(f, dev, fs.Config{CacheFrames: 8192})
	reg := serverless.NewRegistry(1_000_000, 1.0) // fast registry; startup is not the subject
	reg.Push(serverless.SyntheticImage("app", 2, 2<<20))
	rtCfg := serverless.DefaultRuntimeConfig()
	rtCfg.InitNS = 1_000_000

	runtimes := []*serverless.NodeRuntime{
		serverless.NewNodeRuntime(f.Node(0), fsys.Mount(f.Node(0)), reg, rtCfg),
		serverless.NewNodeRuntime(f.Node(1), fsys.Mount(f.Node(1)), reg, rtCfg),
	}
	ctl := serverless.NewController(runtimes, ipc.NewServiceTable(f))

	// Pack node 0 with background containers.
	for i := 0; i < densityFillers; i++ {
		name := fmt.Sprintf("filler-%d", i)
		if _, err := ctl.Deploy(name, "app", func(n *fabric.Node, req []byte) []byte { return nil }); err != nil {
			panic(err)
		}
		if _, err := ctl.ScaleUpOn(name, 0); err != nil {
			panic(err)
		}
	}
	// The measured function has instances on BOTH nodes.
	if _, err := ctl.Deploy("target", "app", func(n *fabric.Node, req []byte) []byte { return req }); err != nil {
		panic(err)
	}
	if _, err := ctl.ScaleUpOn("target", 0); err != nil {
		panic(err)
	}
	if _, err := ctl.ScaleUpOn("target", 1); err != nil {
		panic(err)
	}

	im := serverless.DefaultInterference()
	caller := f.Node(1)

	measure := func(invoke func() error) float64 {
		before := caller.VirtualNS()
		for i := 0; i < cfg.Invokes; i++ {
			if err := invoke(); err != nil {
				panic(err)
			}
		}
		return float64(caller.VirtualNS()-before) / float64(cfg.Invokes)
	}

	pinned := measure(func() error {
		_, err := ctl.InvokePinned(caller, "target", []byte("x"), 0, im)
		return err
	})
	var routedHost int
	routed := measure(func() error {
		out, host, err := ctl.InvokeOn(caller, "target", []byte("x"), im)
		_ = out
		routedHost = host
		return err
	})

	density := ctl.Density()
	res.Table.AddRow("pinned-to-hot-node", fmt.Sprintf("%d", density[0]), ns(pinned))
	res.Table.AddRow("flacos-density-aware", fmt.Sprintf("%d", density[routedHost]), ns(routed))
	res.Ratios["pinned/routed invoke latency"] = pinned / routed
	return res
}
