package experiments

import (
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/fs"
	"flacos/internal/serverless"
)

// ContainerConfig parameterizes the §4.2 container-startup experiment.
type ContainerConfig struct {
	// ImageBytes is the container image size. The paper uses a 4 GiB
	// PyTorch image; the default scales it to 512 MiB so the simulation's
	// real memory footprint stays laptop-sized, with the registry's
	// bandwidth scaled by the same factor so PHASE PROPORTIONS (and hence
	// the speedup factors) match the paper.
	ImageBytes uint64
	// RegistryBytesPerNS is the WAN pull bandwidth.
	RegistryBytesPerNS float64
}

// DefaultContainer reproduces the paper's proportions at 1/8 scale; the
// bandwidth is calibrated so cold/flacos lands near the paper's 3.8x.
func DefaultContainer() ContainerConfig {
	return ContainerConfig{ImageBytes: 512 << 20, RegistryBytesPerNS: 0.045}
}

// QuickContainer is 1/64 of the paper's image; the speedup ratios are
// scale-invariant because the registry bandwidth scales with the image.
func QuickContainer() ContainerConfig {
	return ContainerConfig{ImageBytes: 64 << 20, RegistryBytesPerNS: 0.045 / 8}
}

const (
	containerLayers = 8
	// containerRegistryRTTNS covers auth + manifest round trips.
	containerRegistryRTTNS = 800_000_000
)

// Container reproduces the container-startup experiment: node 0 cold-
// starts an image, then node 1 starts the same image (the paper's
// measured case) — a full cold start without FlacOS, a shared-page-cache
// start with FlacOS — and finally node 1 starts it again hot.
func Container(cfg ContainerConfig) *Result {
	res := newResult("§4.2 container startup: cold vs FlacOS shared page cache vs hot",
		"start", "source", "total", "manifest", "fetch", "unpack", "init")

	f := fabric.New(fabric.Config{
		GlobalSize: cfg.ImageBytes*2 + (256 << 20),
		Nodes:      2,
		Latency:    fabric.DefaultLatency(),
	})
	dev := fs.NewMemDev(50_000, 60_000)
	fsys := fs.New(f, dev, fs.Config{CacheFrames: cfg.ImageBytes/4096 + 1024})
	reg := serverless.NewRegistry(containerRegistryRTTNS, cfg.RegistryBytesPerNS)
	reg.Push(serverless.SyntheticImage("pytorch", containerLayers, cfg.ImageBytes))

	rtCfg := serverless.DefaultRuntimeConfig()
	rt0 := serverless.NewNodeRuntime(f.Node(0), fsys.Mount(f.Node(0)), reg, rtCfg)
	rt1 := serverless.NewNodeRuntime(f.Node(1), fsys.Mount(f.Node(1)), reg, rtCfg)

	add := func(label string, r serverless.StartupReport) {
		res.Table.AddRow(label, r.Source.String(),
			fmt.Sprintf("%.3fs", serverless.Seconds(r.TotalNS)),
			fmt.Sprintf("%.3fs", serverless.Seconds(r.ManifestNS)),
			fmt.Sprintf("%.3fs", serverless.Seconds(r.FetchNS)),
			fmt.Sprintf("%.3fs", serverless.Seconds(r.UnpackNS)),
			fmt.Sprintf("%.3fs", serverless.Seconds(r.InitNS)))
	}

	cold, err := rt0.StartContainer("pytorch")
	if err != nil {
		panic(err)
	}
	add("node0 first start (no FlacOS = cold)", cold)

	flac, err := rt1.StartContainer("pytorch")
	if err != nil {
		panic(err)
	}
	add("node1 start (FlacOS shared cache)", flac)

	hot, err := rt1.StartContainer("pytorch")
	if err != nil {
		panic(err)
	}
	add("node1 restart (hot)", hot)

	res.Ratios["cold/flacos startup"] = float64(cold.TotalNS) / float64(flac.TotalNS)
	res.Ratios["flacos/hot startup"] = float64(flac.TotalNS) / float64(hot.TotalNS)
	return res
}
