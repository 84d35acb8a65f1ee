package serverless

import (
	"bytes"
	"runtime"
	"runtime/debug"
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

	// Node 1 again: hot start.
	hot, err := env.runtimes[1].StartContainer("pytorch")
	if err != nil {
		t.Fatal(err)
	}
	if hot.Source != SourceLocal {
		t.Fatalf("third start source = %v", hot.Source)
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
	inv, colds := f.Stats()
	if inv != 1 || colds != 1 {
		t.Fatalf("stats = %d/%d", inv, colds)
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
// cost: it streams the image through one pooled PullChunk buffer, so it
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

// TestEvictNodeReplacesBeforeRemoving scripts the window between
// EvictNode's two steps, with the placer consulted for the replacement
// as the observer: while the replacement is being placed, the dead node's
// instance is still on the books, so the function is never at zero
// replicas. The placer names the dead node, as one that has not yet heard
// of the death would; the replacement must go elsewhere regardless.
func TestEvictNodeReplacesBeforeRemoving(t *testing.T) {
	env := newTestEnv(t, 3)
	ctl := NewController(env.runtimes, env.services)
	fn, err := ctl.Deploy("fn", "pytorch", func(n *fabric.Node, req []byte) []byte { return req })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.ScaleUpOn("fn", 2); err != nil {
		t.Fatal(err)
	}
	consulted := 0
	ctl.SetPlacer(func(density []int) int {
		consulted++
		if density[2] != 1 || fn.Instances() != 1 {
			t.Errorf("replacement placed while density = %v and the function has %d instances: it was at zero replicas",
				density, fn.Instances())
		}
		return 2
	})
	if got := ctl.EvictNode(2); got != 1 {
		t.Fatalf("EvictNode(2) = %d, want 1", got)
	}
	if consulted != 1 {
		t.Fatalf("placer consulted %d times, want 1", consulted)
	}
	if d := ctl.Density(); d[2] != 0 || d[0]+d[1] != 1 || fn.Instances() != 1 {
		t.Fatalf("after eviction density = %v, %d instances; want one instance off node 2", d, fn.Instances())
	}
	if got := ctl.EvictNode(2); got != 0 {
		t.Fatalf("second EvictNode(2) = %d, want 0", got)
	}
}
