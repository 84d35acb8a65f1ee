package serverless

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/fs"
	"flacos/internal/ipc"
)

// testEnv boots a rack with the shared FS and a registry holding a small
// synthetic image (16 MiB so tests stay fast; the flacbench harness runs
// the paper-scale 4 GB version).
type testEnv struct {
	fab      *fabric.Fabric
	registry *Registry
	runtimes []*NodeRuntime
	services *ipc.ServiceTable
}

const testImageBytes = 16 << 20

func newTestEnv(t *testing.T, nodes int) *testEnv {
	t.Helper()
	f := fabric.New(fabric.Config{
		GlobalSize: 96 << 20,
		Nodes:      nodes,
		Latency:    fabric.DefaultLatency(),
	})
	dev := fs.NewMemDev(50_000, 60_000)
	fsys := fs.New(f, dev, fs.Config{CacheFrames: (testImageBytes / 4096) * 2, MetaLogCap: 1024})
	// Scaled-down costs so the 16 MiB test image keeps the same phase
	// proportions as the paper-scale 4 GB run in flacbench: a slow
	// registry dominating cold starts, a modest runtime-init floor.
	reg := NewRegistry(5_000_000, 0.02) // 5 ms RTT, 20 MB/s
	reg.Push(SyntheticImage("pytorch", 4, testImageBytes))

	cfg := DefaultRuntimeConfig()
	cfg.InitNS = 50_000_000 // 50 ms
	env := &testEnv{fab: f, registry: reg, services: ipc.NewServiceTable(f)}
	for i := 0; i < nodes; i++ {
		env.runtimes = append(env.runtimes,
			NewNodeRuntime(f.Node(i), fsys.Mount(f.Node(i)), reg, cfg))
	}
	return env
}

func TestLayerContentDeterministic(t *testing.T) {
	l := Layer{Digest: "sha256:abc", Size: 1 << 20}
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	l.Content(100, a)
	l.Content(100, b)
	if !bytes.Equal(a, b) {
		t.Fatal("layer content not deterministic")
	}
	l2 := Layer{Digest: "sha256:def", Size: 1 << 20}
	l2.Content(100, b)
	if bytes.Equal(a, b) {
		t.Fatal("different digests produced identical content")
	}
	// Offset-consistency: reading [0,8K) in one call equals two 4K calls.
	big := make([]byte, 8192)
	l.Content(0, big)
	l.Content(4096, b)
	if !bytes.Equal(big[4096:], b) {
		t.Fatal("content not offset-consistent")
	}
}

func TestSyntheticImageSizes(t *testing.T) {
	img := SyntheticImage("x", 3, 100)
	if img.TotalBytes() != 100 || len(img.Layers) != 3 {
		t.Fatalf("img = %+v", img)
	}
}

func TestContainerStartupThreePaths(t *testing.T) {
	env := newTestEnv(t, 2)

	// Node 0: full cold start from the registry.
	cold, err := env.runtimes[0].StartContainer("pytorch")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Source != SourceRegistry {
		t.Fatalf("first start source = %v", cold.Source)
	}

	if got := env.registry.LayerBatches(); got != 1 {
		t.Fatalf("cold start made %d layer batches, want 1", got)
	}

	// Node 1: FlacOS start — image bytes come from the shared page cache.
	pullsBefore := env.registry.LayerPulls()
	flac, err := env.runtimes[1].StartContainer("pytorch")
	if err != nil {
		t.Fatal(err)
	}
	if flac.Source != SourceSharedCache {
		t.Fatalf("second-node start source = %v", flac.Source)
	}
	// Only the manifest request may hit the registry, never layers.
	if env.registry.LayerPulls() != pullsBefore+1 {
		t.Fatalf("registry pulls during FlacOS start = %d", env.registry.LayerPulls()-pullsBefore)
	}
	if got := env.registry.LayerBatches(); got != 1 {
		t.Fatalf("FlacOS start pulled layers: %d batches in all, want the cold start's 1", got)
	}

	// Node 1 again: hot start.
	hot, err := env.runtimes[1].StartContainer("pytorch")
	if err != nil {
		t.Fatal(err)
	}
	if hot.Source != SourceLocal {
		t.Fatalf("third start source = %v", hot.Source)
	}
	if got := env.registry.LayerBatches(); got != 1 {
		t.Fatalf("hot start pulled layers: %d batches in all, want the cold start's 1", got)
	}

	// The paper's ordering: hot < FlacOS shared-cache < cold, with a
	// multi-x gap between FlacOS and cold.
	if !(hot.TotalNS < flac.TotalNS && flac.TotalNS < cold.TotalNS) {
		t.Fatalf("ordering violated: cold=%s flac=%s hot=%s", cold, flac, hot)
	}
	if cold.TotalNS < 2*flac.TotalNS {
		t.Fatalf("shared cache speedup too small: cold=%s flac=%s", cold, flac)
	}
}

// TestColdStartOneRegistryRoundTrip pins the batch pull's cost: one round
// trip, then the larger of the link-shared transfer and the installs that
// overlap it. So a cold start's fetch does not grow with the layer count.
func TestColdStartOneRegistryRoundTrip(t *testing.T) {
	env := newTestEnv(t, 1)
	reg, n := env.registry, env.fab.Node(0)
	layers := SyntheticImage("budget", 4, 1<<20).Layers
	buf := make([]byte, 64<<10)
	transfer := int(float64(1<<20) / reg.BytesPerNS)

	t0 := n.VirtualNS()
	reg.PullLayers(n, layers, buf, func(int, uint64, []byte) {})
	if got, want := n.VirtualNS()-t0, uint64(reg.RTTNS+transfer); got != want {
		t.Fatalf("free installs: batch charged %d ns, want RTT + transfer = %d", got, want)
	}

	// 16 chunks each charging a 16th of twice the transfer: the installs
	// outlast the transfer, which then hides entirely behind them.
	perChunk := 2 * transfer / 16
	chunks := 0
	t0 = n.VirtualNS()
	reg.PullLayers(n, layers, buf, func(int, uint64, []byte) {
		chunks++
		n.ChargeNS(perChunk)
	})
	if chunks != 16 {
		t.Fatalf("sink called %d times, want 16", chunks)
	}
	if got, want := n.VirtualNS()-t0, uint64(reg.RTTNS+16*perChunk); got != want {
		t.Fatalf("slow installs: batch charged %d ns, want RTT + installs = %d", got, want)
	}

	// Equal total size, 1, 4 and 8 layers (and 20, more than the start
	// keeps on its stack): each cold start pays one RTT.
	var fetch []uint64
	for _, count := range []int{1, 4, 8, 20} {
		env := newTestEnv(t, 1)
		img := SyntheticImage(fmt.Sprintf("layers%d", count), count, testImageBytes)
		env.registry.Push(img)
		rep, err := env.runtimes[0].StartContainer(img.Name)
		if err != nil || rep.Source != SourceRegistry {
			t.Fatalf("%d layers: start = %v, %v; want a registry start", count, rep.Source, err)
		}
		fetch = append(fetch, rep.FetchNS)
	}
	lo, hi := slices.Min(fetch), slices.Max(fetch)
	if hi-lo >= uint64(reg.RTTNS) {
		t.Fatalf("fetch for 1, 4, 8 and 20 layers = %v ns: spread %d >= one RTT (%d)", fetch, hi-lo, reg.RTTNS)
	}
}

// checkLayers reads every layer of img back through m and compares it with
// the layer's content.
func checkLayers(t *testing.T, m *fs.Mount, img Image) {
	t.Helper()
	got := make([]byte, 1<<20)
	want := make([]byte, 1<<20)
	for _, l := range img.Layers {
		id, ok := m.Lookup(layerPath(l))
		if !ok || m.Size(id) != l.Size {
			t.Fatalf("layer %s missing or short after the start", l.Digest)
		}
		for off := uint64(0); off < l.Size; off += uint64(len(got)) {
			sz := min(uint64(len(got)), l.Size-off)
			if _, err := m.Read(id, off, got[:sz]); err != nil {
				t.Fatal(err)
			}
			l.Content(off, want[:sz])
			if !bytes.Equal(got[:sz], want[:sz]) {
				t.Fatalf("layer %s differs from its content at [%d, %d)", l.Digest, off, off+sz)
			}
		}
	}
}

// TestPartiallyCachedImagePullsOnlyMissingLayers starts an image whose
// first layer another image already brought into the shared page cache:
// that layer is read from the cache, and the rest come in one batch.
func TestPartiallyCachedImagePullsOnlyMissingLayers(t *testing.T) {
	env := newTestEnv(t, 2)
	if _, err := env.runtimes[0].StartContainer("pytorch"); err != nil {
		t.Fatal(err)
	}
	base := SyntheticImage("pytorch", 4, testImageBytes)
	img := SyntheticImage("derived", 4, testImageBytes)
	img.Layers[0] = base.Layers[0]
	env.registry.Push(img)

	batches := env.registry.LayerBatches()
	rep, err := env.runtimes[1].StartContainer(img.Name)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != SourceRegistry {
		t.Fatalf("start source = %v, want %v", rep.Source, SourceRegistry)
	}
	if got := env.registry.LayerBatches() - batches; got != 1 {
		t.Fatalf("start made %d layer batches, want 1", got)
	}
	// The cached layer's transfer is not paid: the fetch costs less than
	// pulling the whole image, and at least pulling the three others.
	reg := env.registry
	whole := uint64(reg.RTTNS) + uint64(float64(img.TotalBytes())/reg.BytesPerNS)
	rest := uint64(reg.RTTNS) + uint64(float64(img.TotalBytes()-img.Layers[0].Size)/reg.BytesPerNS)
	if rep.FetchNS >= whole || rep.FetchNS < rest {
		t.Fatalf("fetch = %d ns, want in [%d, %d): the three missing layers' pull, not the image's", rep.FetchNS, rest, whole)
	}
	checkLayers(t, env.runtimes[1].mount, img)
}

// TestShortLayerFileCompletedByNextColdStart leaves a layer file half
// written, as an interrupted pull would: the next cold start pulls that
// layer again over it, and it reads back byte-exact.
func TestShortLayerFileCompletedByNextColdStart(t *testing.T) {
	env := newTestEnv(t, 2)
	img := SyntheticImage("pytorch", 4, testImageBytes)
	short := img.Layers[1]
	m := env.runtimes[0].mount
	id, err := m.Create(layerPath(short))
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, short.Size/2)
	short.Content(0, half)
	if _, err := m.Write(id, 0, half); err != nil {
		t.Fatal(err)
	}

	rep, err := env.runtimes[1].StartContainer(img.Name)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != SourceRegistry {
		t.Fatalf("start source = %v, want %v", rep.Source, SourceRegistry)
	}
	if got, ok := env.runtimes[1].mount.Lookup(layerPath(short)); !ok || got != id {
		t.Fatalf("short layer's file id = %d, %v; want the interrupted pull's %d", got, ok, id)
	}
	checkLayers(t, env.runtimes[1].mount, img)
}

func TestStartUnknownImage(t *testing.T) {
	env := newTestEnv(t, 1)
	if _, err := env.runtimes[0].StartContainer("nope"); err == nil {
		t.Fatal("unknown image should fail")
	}
}

func TestControllerDeployInvokeScale(t *testing.T) {
	env := newTestEnv(t, 2)
	ctl := NewController(env.runtimes, env.services)

	_, err := ctl.Deploy("resize", "pytorch", func(n *fabric.Node, req []byte) []byte {
		out := append([]byte("resized:"), req...)
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Deploy("resize", "pytorch", nil); err == nil {
		t.Fatal("duplicate deploy should fail")
	}

	// First invocation cold-starts an instance.
	out, err := ctl.Invoke(env.fab.Node(0), "resize", []byte("img1"))
	if err != nil || string(out) != "resized:img1" {
		t.Fatalf("invoke = %q, %v", out, err)
	}
	f := func() *Function {
		fn, _ := ctl.fns["resize"]
		return fn
	}()
	if f.Instances() != 1 {
		t.Fatalf("instances = %d", f.Instances())
	}

	// Scale out to the second node: the shared page cache makes it a
	// non-registry start.
	rep, err := ctl.ScaleUp("resize")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source != SourceSharedCache {
		t.Fatalf("scale-out source = %v", rep.Source)
	}
	if f.Instances() != 2 {
		t.Fatalf("instances = %d", f.Instances())
	}
	density := ctl.Density()
	if density[0]+density[1] != 2 || density[0] != 1 {
		t.Fatalf("density = %v (placement should balance)", density)
	}
	// Invocations run from any node via the shared code context.
	out, err = ctl.Invoke(env.fab.Node(1), "resize", []byte("img2"))
	if err != nil || string(out) != "resized:img2" {
		t.Fatalf("invoke from node 1 = %q, %v", out, err)
	}
}

func TestInvokeChainOverSharedMemory(t *testing.T) {
	env := newTestEnv(t, 2)
	ctl := NewController(env.runtimes, env.services)
	ctl.Deploy("stage1", "pytorch", func(n *fabric.Node, req []byte) []byte {
		return append(req, []byte("|s1")...)
	})
	ctl.Deploy("stage2", "pytorch", func(n *fabric.Node, req []byte) []byte {
		return append(req, []byte("|s2")...)
	})
	ctl.Deploy("stage3", "pytorch", func(n *fabric.Node, req []byte) []byte {
		return append(req, []byte("|s3")...)
	})
	out, err := ctl.InvokeChain(env.fab.Node(0), []string{"stage1", "stage2", "stage3"}, []byte("in"))
	if err != nil || string(out) != "in|s1|s2|s3" {
		t.Fatalf("chain = %q, %v", out, err)
	}
	if _, err := ctl.InvokeChain(env.fab.Node(0), []string{"stage1", "missing"}, nil); err == nil {
		t.Fatal("chain with missing stage should fail")
	}
}

func TestInvokeUndeployed(t *testing.T) {
	env := newTestEnv(t, 1)
	ctl := NewController(env.runtimes, env.services)
	if _, err := ctl.Invoke(env.fab.Node(0), "ghost", nil); err == nil {
		t.Fatal("undeployed function should fail")
	}
	if _, err := ctl.ScaleUp("ghost"); err == nil {
		t.Fatal("scale of undeployed function should fail")
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops what it is given at random, so a pooled buffer is
// allocated again now and then.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSharedCacheStartAllocations pins a warmed shared-cache start's host
// cost: it streams the image through one pooled pullChunk buffer, so it
// makes next to no allocations (none, when this was written) and none of
// them is the 1 MiB chunk.
func TestSharedCacheStartAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	env := newTestEnv(t, 2)
	if _, err := env.runtimes[0].StartContainer("pytorch"); err != nil {
		t.Fatal(err)
	}
	rt := env.runtimes[1]
	start := func() {
		delete(rt.unpacked, "pytorch") // forget the rootfs: the next start is a shared-cache one again
		rep, err := rt.StartContainer("pytorch")
		if err != nil || rep.Source != SourceSharedCache {
			t.Fatalf("start = %v, %v; want a shared-cache start", rep.Source, err)
		}
	}
	// One P, as testing.AllocsPerRun does, and the warm-up start under it:
	// a pooled buffer parked on another P's private slot is not found.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start()
	const runs = 10
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		start()
	}
	runtime.ReadMemStats(&b)
	if allocs := (b.Mallocs - a.Mallocs) / runs; allocs > 2 {
		t.Fatalf("shared-cache start made %d allocations, want at most 2", allocs)
	}
	if perStart := (b.TotalAlloc - a.TotalAlloc) / runs; perStart >= 64<<10 {
		t.Fatalf("shared-cache start allocated %d bytes, want < 64 KiB (no chunk buffer)", perStart)
	}
}
