// Serverless demonstrates the paper's case study (§4.1): a rack-level
// serverless platform where container images flow through the FlacOS
// shared page cache, functions scale across nodes instantly, and service
// chains run over migration RPC instead of the network.
package main

import (
	"fmt"
	"log"

	"flacos/internal/core"
	"flacos/internal/fabric"
	"flacos/internal/serverless"
)

func main() {
	rack := core.Boot(core.Config{
		Nodes:           2,
		GlobalMemory:    512 << 20,
		PageCacheFrames: 40000,
	})

	// A registry holding a 64 MiB "pytorch" image over a slow WAN link.
	registry := serverless.NewRegistry(100_000_000, 0.01) // 100ms RTT, 10 MB/s
	registry.Push(serverless.SyntheticImage("pytorch", 6, 64<<20))
	rtCfg := serverless.DefaultRuntimeConfig()
	rtCfg.InitNS = 500_000_000 // 0.5 s runtime boot

	ctl := rack.Serverless(registry, rtCfg)

	// Deploy an inference pipeline: three functions sharing the image.
	stages := []string{"preprocess", "infer", "postprocess"}
	for _, name := range stages {
		name := name
		if _, err := ctl.Deploy(name, "pytorch", func(n *fabric.Node, req []byte) []byte {
			return append(req, ("|" + name)...)
		}); err != nil {
			log.Fatal(err)
		}
	}

	// First invocation: scale from zero — a cold start that pulls the
	// image from the registry.
	fmt.Println("invoking chain (cold start on first node)...")
	out, err := ctl.InvokeChain(rack.Fabric.Node(0), stages, []byte("img-001"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chain output: %q\n\n", out)

	// Scale each stage out to the second node: the image is already in the
	// rack's shared page cache, so no registry traffic happens at all.
	fmt.Println("scaling every stage to a second instance...")
	for _, name := range stages {
		rep, err := ctl.ScaleUp(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s -> %s\n", name, rep)
	}
	fmt.Printf("\ninstance density per node: %v\n", ctl.Density())

	// Invocations run from either node via the shared code context.
	out, err = ctl.InvokeChain(rack.Fabric.Node(1), stages, []byte("img-002"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chain from node 1: %q\n", out)
	fmt.Printf("registry manifest requests: %d (scale-out added only manifest checks)\n",
		registry.LayerPulls())
}
