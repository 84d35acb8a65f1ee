package main

import (
	"bytes"
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/fs"
	"flacos/internal/loadgen"
	"flacos/internal/serverless"
)

// containerConfig sizes the paper's §4.2 experiment, repeated over a set
// of images: node 0 cold-starts each image from the registry into the
// shared page cache, then node 1 starts it out of that cache.
type containerConfig struct {
	images     int
	warm       int    // extra images started before timing
	layers     int    // per image
	imageBytes uint64 // nominal; each image's size is drawn within ±1/128 of it
}

// The registry's bandwidth is scaled with the image as flacbench -quick
// scales it (0.045 B/ns for the 512 MiB default), which keeps the paper's
// phase proportions at any image size.
func registryBytesPerNS(imageBytes uint64) float64 {
	return 0.045 * float64(imageBytes) / float64(512<<20)
}

// runContainer is one repetition. Output checks: every start reports the
// source it should have (registry, shared cache, local); the registry
// served exactly one manifest per cold or shared start and none per hot
// one; and, after timing, one page-sized chunk of every layer read back
// through node 1's mount equals the layer's content.
func runContainer(cfg containerConfig, seed uint64, tr *tracer) *rep {
	m := startRep(tr)
	kStart := [...]*spanKind{tr.kind("serverless", "start_cold"), tr.kind("serverless", "start_shared"), tr.kind("serverless", "start_hot")}
	kRead, kWrite, kWB := tr.kind("fs", "read"), tr.kind("fs", "write"), tr.kind("fs", "writeback")

	r := loadgen.NewRand(seed)
	total := cfg.images + cfg.warm
	images := make([]serverless.Image, total)
	var pages uint64
	for i := range images {
		size := cfg.imageBytes*127/128 + uint64(r.Intn(int(cfg.imageBytes/64)))
		size = fabric.AlignUp64(size, fs.PageSize*uint64(cfg.layers))
		images[i] = serverless.SyntheticImage(fmt.Sprintf("img-%d-%d", seed, i), cfg.layers, size)
		pages += size / fs.PageSize
	}
	const scratchPages = 256 // the driver's own file, for the fs unit costs
	frames := pages + scratchPages + 1024

	f := fabric.New(fabric.Config{GlobalSize: frames*fs.PageSize + 16<<20, Nodes: 2, Latency: fabric.DefaultLatency()})
	dev := fs.NewMemDev(50_000, 60_000)
	fsys := fs.New(f, dev, fs.Config{CacheFrames: frames})
	reg := serverless.NewRegistry(800_000_000, registryBytesPerNS(cfg.imageBytes))
	for _, img := range images {
		reg.Push(img)
	}
	mounts := [2]*fs.Mount{fsys.Mount(f.Node(0)), fsys.Mount(f.Node(1))}
	rts := [2]*serverless.NodeRuntime{
		serverless.NewNodeRuntime(f.Node(0), mounts[0], reg, serverless.DefaultRuntimeConfig()),
		serverless.NewNodeRuntime(f.Node(1), mounts[1], reg, serverless.DefaultRuntimeConfig()),
	}

	var fetchNS, totalNS [3]uint64
	start := func(node int, img serverless.Image, want serverless.StartSource) bool {
		tr.begin(kStart[want])
		rep, err := rts[node].StartContainer(img.Name)
		tr.end(kStart[want])
		fetchNS[want] += rep.FetchNS
		totalNS[want] += rep.TotalNS
		return err == nil && rep.Source == want
	}

	for _, img := range images[:cfg.warm] {
		if !start(0, img, serverless.SourceRegistry) || !start(1, img, serverless.SourceSharedCache) || !start(1, img, serverless.SourceLocal) {
			panic("bench: container warm-up start failed")
		}
	}
	// The driver's own calls into the mount, which price the fs layer per
	// page: NodeRuntime takes a concrete *fs.Mount, so the fs work inside a
	// start cannot be wrapped from outside and stays part of the start's
	// span. One write-back pass here also empties the dirty set, so the
	// timed starts never pay for the warm-up's pages.
	tr.enable(f)
	scratch := make([]byte, scratchPages*fs.PageSize)
	images[0].Layers[0].Content(0, scratch)
	id, err := mounts[0].Create("/bench/scratch")
	if err != nil {
		panic(err)
	}
	tr.begin(kWrite)
	mounts[0].Write(id, 0, scratch)
	tr.end(kWrite)
	back := make([]byte, len(scratch))
	tr.begin(kRead)
	mounts[1].Read(id, 0, back)
	tr.end(kRead)
	if !bytes.Equal(back, scratch) {
		panic("bench: container scratch file read back wrong")
	}
	tr.begin(kWB)
	written := mounts[0].WriteBackOnce()
	tr.end(kWB)
	tr.disable()
	// The write-back pass read every dirty page through node 0's cache and
	// left it full. A full cache evicts in Go map order, and a victim that
	// happens to be a dirty line of the page being written shortens that
	// page's write-back by a line: 20 simulated ns, in about one run in
	// thirty. Starting the timed phase from an empty cache keeps it exact.
	f.Node(0).InvalidateAll()
	m.layer["warmup_ops"] = float64(3 * cfg.warm)
	fetchNS, totalNS = [3]uint64{}, [3]uint64{}
	h0, m0 := mounts[1].CacheStats()

	m.measure(f, [][]int{{0, 1}}, cfg.images, cfg.images)
	for _, img := range images[cfg.warm:] {
		m.begin()
		ok := start(0, img, serverless.SourceRegistry)
		m.end(classWrite, 0, ok)
		m.begin()
		ok = start(1, img, serverless.SourceSharedCache)
		m.end(classRead, 0, ok)
	}
	m.finish()
	h1, m1 := mounts[1].CacheStats()
	m.layer["fs.cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))

	// After timing: hot restarts (a layer metric only) and the audit.
	tr.enable(f)
	for _, img := range images[cfg.warm:] {
		m.audited++
		if !start(1, img, serverless.SourceLocal) {
			m.failed++
		}
	}
	pulls := uint64(2 * total) // one manifest per cold or shared start
	if plantFault {
		pulls++
	}
	m.audited++
	if reg.LayerPulls() != pulls {
		m.failed++
	}
	got, want := make([]byte, fs.PageSize), make([]byte, fs.PageSize)
	for _, img := range images[cfg.warm:] {
		for _, l := range img.Layers {
			off := uint64(r.Intn(int(l.Size/fs.PageSize))) * fs.PageSize
			id, ok := mounts[1].Lookup("/images/" + l.Digest)
			tr.begin(kRead)
			n, err := mounts[1].Read(id, off, got)
			tr.end(kRead)
			l.Content(off, want)
			m.audited++
			if !ok || err != nil || n != len(got) || !bytes.Equal(got, want) {
				m.failed++
			}
		}
	}
	tr.disable()

	m.layer["fs.write_pages"] = scratchPages
	m.layer["fs.read_pages"] = float64(scratchPages + cfg.images*cfg.layers)
	m.layer["fs.writeback_pages"] = float64(written)
	m.layer["fs.dev_reads"] = float64(dev.Reads())
	m.layer["serverless.registry_layer_pulls"] = float64(reg.LayerPulls())
	m.layer["serverless.fetch_share_cold"] = ratio(float64(fetchNS[serverless.SourceRegistry]), float64(totalNS[serverless.SourceRegistry]))
	m.layer["serverless.fetch_share_shared"] = ratio(float64(fetchNS[serverless.SourceSharedCache]), float64(totalNS[serverless.SourceSharedCache]))
	return m.rep
}
