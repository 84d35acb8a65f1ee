package serverless

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/fs"
)

// StartSource says where a container start got its image bytes.
type StartSource int

// Start sources, fastest path last.
const (
	// SourceRegistry: full cold start, layers pulled over the WAN.
	SourceRegistry StartSource = iota
	// SourceSharedCache: FlacOS start — layers served from the rack's
	// shared page cache, populated by another node's earlier start.
	SourceSharedCache
	// SourceLocal: hot start — this node already unpacked the image.
	SourceLocal
)

func (s StartSource) String() string {
	switch s {
	case SourceRegistry:
		return "registry(cold)"
	case SourceSharedCache:
		return "shared-page-cache(flacos)"
	case SourceLocal:
		return "local(hot)"
	}
	return "unknown"
}

// StartupReport breaks a container start into the paper's phases, in
// virtual nanoseconds.
type StartupReport struct {
	Source     StartSource
	ManifestNS uint64
	FetchNS    uint64
	UnpackNS   uint64
	InitNS     uint64
	TotalNS    uint64
}

// RuntimeConfig models the node-local container runtime costs.
type RuntimeConfig struct {
	// UnpackBytesPerNS is layer unpack (decompress + untar) throughput.
	// 2.0 = 2 GB/s.
	UnpackBytesPerNS float64
	// InitNS is runtime initialization: namespaces, cgroups, guest/runtime
	// boot — the floor every start pays (the paper's 3.02 s hot start is
	// dominated by it).
	InitNS uint64
	// PullChunk is the registry streaming granularity.
	PullChunk uint64
}

// DefaultRuntimeConfig reproduces the paper's container experiment scale:
// 4 GB image, ~200 MB/s registry, ~2.8 s runtime init.
func DefaultRuntimeConfig() RuntimeConfig {
	return RuntimeConfig{
		UnpackBytesPerNS: 4.0,
		PullChunk:        1 << 20,
		InitNS:           2_800_000_000,
	}
}

// NodeRuntime is one node's container runtime, sharing the FlacOS file
// system (and therefore the rack-wide page cache) with every other node.
type NodeRuntime struct {
	node     *fabric.Node
	cfg      RuntimeConfig
	mount    *fs.Mount
	registry *Registry

	mu       sync.Mutex
	unpacked map[string]bool // images with a local rootfs (hot-startable)
}

// chunkBufs recycles the buffers starts stream image bytes through. It is
// package-level on purpose: the Go runtime keeps a used pool reachable
// until a collection after its last use, so a pool inside a NodeRuntime
// would keep the runtime — and through its node, the rack's whole memory —
// alive one collection longer than its last reference.
var chunkBufs = sync.Pool{New: func() any { return new([]byte) }}

// NewNodeRuntime creates node n's runtime over the shared file system.
func NewNodeRuntime(n *fabric.Node, mount *fs.Mount, reg *Registry, cfg RuntimeConfig) *NodeRuntime {
	return &NodeRuntime{node: n, cfg: cfg, mount: mount, registry: reg, unpacked: make(map[string]bool)}
}

// Node returns the runtime's fabric node.
func (rt *NodeRuntime) Node() *fabric.Node { return rt.node }

func layerPath(l Layer) string { return "/images/" + l.Digest }

// StartContainer materializes the image and boots a container, returning
// the phase-by-phase startup report. The three paths (cold, shared-cache,
// hot) emerge naturally from what is already where.
func (rt *NodeRuntime) StartContainer(imageName string) (StartupReport, error) {
	n := rt.node
	var rep StartupReport
	t0 := n.VirtualNS()

	rt.mu.Lock()
	hot := rt.unpacked[imageName]
	rt.mu.Unlock()

	if hot {
		// Hot start: rootfs and runtime data already on this node.
		rep.Source = SourceLocal
		n.ChargeNS(int(rt.cfg.InitNS))
		rep.InitNS = rt.cfg.InitNS
		rep.TotalNS = n.VirtualNS() - t0
		return rep, nil
	}

	// Every non-hot start fetches the manifest from the registry — the
	// paper notes FlacOS cold start still downloads image metadata.
	img, err := rt.registry.PullManifest(n, imageName)
	if err != nil {
		return rep, err
	}
	rep.ManifestNS = n.VirtualNS() - t0

	// Materialize layers: through the shared page cache if some node
	// already fetched them, otherwise from the registry (also populating
	// the cache for the rest of the rack).
	fetchStart := n.VirtualNS()
	usedRegistry := false
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	if uint64(cap(*bp)) < rt.cfg.PullChunk {
		*bp = make([]byte, rt.cfg.PullChunk)
	}
	buf := (*bp)[:rt.cfg.PullChunk]
	for _, l := range img.Layers {
		if id, ok := rt.mount.Lookup(layerPath(l)); ok && rt.mount.Size(id) == l.Size {
			// Shared-cache path: stream the layer out of global memory.
			for off := uint64(0); off < l.Size; off += rt.cfg.PullChunk {
				sz := min(rt.cfg.PullChunk, l.Size-off)
				if _, err := rt.mount.Read(id, off, buf[:sz]); err != nil {
					return rep, err
				}
			}
			continue
		}
		usedRegistry = true
		id, err := rt.mount.Create(layerPath(l))
		if err != nil {
			// Racing node created it; read it instead.
			if id2, ok := rt.mount.Lookup(layerPath(l)); ok {
				id = id2
			} else {
				return rep, err
			}
		}
		rt.registry.PullLayer(n, l, buf, func(off uint64, data []byte) {
			rt.mount.Write(id, off, data)
		})
	}
	rep.FetchNS = n.VirtualNS() - fetchStart

	// Unpack into the node-local rootfs.
	unpackStart := n.VirtualNS()
	n.ChargeNS(int(float64(img.TotalBytes()) / rt.cfg.UnpackBytesPerNS))
	rep.UnpackNS = n.VirtualNS() - unpackStart

	// Boot the runtime.
	n.ChargeNS(int(rt.cfg.InitNS))
	rep.InitNS = rt.cfg.InitNS

	rt.mu.Lock()
	rt.unpacked[imageName] = true
	rt.mu.Unlock()

	if usedRegistry {
		rep.Source = SourceRegistry
	} else {
		rep.Source = SourceSharedCache
	}
	rep.TotalNS = n.VirtualNS() - t0
	return rep, nil
}

// Seconds renders a virtual-nanosecond quantity as seconds.
func Seconds(ns uint64) float64 { return float64(ns) / 1e9 }

// String summarizes a report.
func (r StartupReport) String() string {
	return fmt.Sprintf("%s: total=%.3fs (manifest=%.3fs fetch=%.3fs unpack=%.3fs init=%.3fs)",
		r.Source, Seconds(r.TotalNS), Seconds(r.ManifestNS), Seconds(r.FetchNS),
		Seconds(r.UnpackNS), Seconds(r.InitNS))
}
