package experiments

import (
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/fs"
)

// PageCacheConfig parameterizes ablation B.
type PageCacheConfig struct {
	Files    int
	PagesPer int
}

// DefaultPageCache uses a shared working set (container images, shared
// datasets) read by every node — the §3.4 scenario.
func DefaultPageCache() PageCacheConfig { return PageCacheConfig{Files: 8, PagesPer: 64} }

// QuickPageCache is the CI-sized run.
func QuickPageCache() PageCacheConfig { return PageCacheConfig{Files: 4, PagesPer: 16} }

const (
	pageCacheNodes = 4
	// pageCacheReadLoops is how many times each node re-reads the file set.
	pageCacheReadLoops = 2
)

// PageCacheAblation quantifies §3.4's claim: a shared page cache stores
// one copy of each cached page rack-wide, where per-node caches store one
// copy PER NODE — and the shared copy also turns other nodes' first reads
// into hits, cutting device traffic.
func PageCacheAblation(cfg PageCacheConfig) *Result {
	res := newResult("Ablation B: shared page cache vs per-node page caches",
		"design", "rack cached pages", "device reads", "hit rate")
	workingSet := uint64(cfg.Files * cfg.PagesPer)

	// --- FlacOS shared page cache ---
	{
		f := fabric.New(fabric.Config{GlobalSize: 256 << 20, Nodes: pageCacheNodes, Latency: fabric.DefaultLatency()})
		dev := fs.NewMemDev(50_000, 60_000)
		fsys := fs.New(f, dev, fs.Config{CacheFrames: workingSet * 2})
		mounts := make([]*fs.Mount, pageCacheNodes)
		for i := range mounts {
			mounts[i] = fsys.Mount(f.Node(i))
		}
		ids := prepareFiles(mounts[0], dev, cfg)
		// Start cache-cold, like the baseline: the working set lives on the
		// device; the first reader faults it into the shared cache once.
		mounts[0].DropCaches()
		baseReads := dev.Reads()
		var hits, misses uint64
		buf := make([]byte, cfg.PagesPer*fs.PageSize)
		for loop := 0; loop < pageCacheReadLoops; loop++ {
			for _, m := range mounts {
				for _, id := range ids {
					m.Read(id, 0, buf)
				}
			}
		}
		for _, m := range mounts {
			h, ms := m.CacheStats()
			hits += h
			misses += ms
		}
		cached := fsys.CachedPages(f.Node(0))
		hitRate := float64(hits) / float64(hits+misses)
		res.Table.AddRow("flacos-shared", fmt.Sprintf("%d", cached),
			fmt.Sprintf("%d", dev.Reads()-baseReads), fmt.Sprintf("%.1f%%", hitRate*100))
		res.Ratios["shared cache pages"] = float64(cached)
		res.Ratios["shared device reads"] = float64(dev.Reads() - baseReads)
	}

	// --- Per-node private caches (disaggregated baseline) ---
	{
		f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: pageCacheNodes, Latency: fabric.DefaultLatency()})
		dev := fs.NewMemDev(50_000, 60_000)
		// Seed the device directly: the baseline has no shared FS.
		page := make([]byte, fs.PageSize)
		for fid := 1; fid <= cfg.Files; fid++ {
			for p := 0; p < cfg.PagesPer; p++ {
				for i := range page {
					page[i] = byte(fid * (p + 1))
				}
				dev.WritePage(f.Node(0), uint64(fid), uint32(p), page)
			}
		}
		baseReads := dev.Reads()
		locals := make([]*fs.LocalCacheMount, pageCacheNodes)
		var hits, misses, rackPages uint64
		buf := make([]byte, cfg.PagesPer*fs.PageSize)
		for i := range locals {
			locals[i] = fs.NewLocalCacheMount(f.Node(i), dev)
		}
		for loop := 0; loop < pageCacheReadLoops; loop++ {
			for _, lc := range locals {
				for fid := 1; fid <= cfg.Files; fid++ {
					lc.Read(uint64(fid), 0, buf)
				}
			}
		}
		for _, lc := range locals {
			h, ms := lc.CacheStats()
			hits += h
			misses += ms
			rackPages += lc.CachedPages()
		}
		hitRate := float64(hits) / float64(hits+misses)
		res.Table.AddRow("per-node-private", fmt.Sprintf("%d", rackPages),
			fmt.Sprintf("%d", dev.Reads()-baseReads), fmt.Sprintf("%.1f%%", hitRate*100))
		res.Ratios["private/shared memory use"] = float64(rackPages) / res.Ratios["shared cache pages"]
		if res.Ratios["shared device reads"] > 0 {
			res.Ratios["private/shared device reads"] =
				float64(dev.Reads()-baseReads) / res.Ratios["shared device reads"]
		}
	}
	return res
}

// prepareFiles writes the shared working set through mount m and fsyncs it
// to the device, returning the file ids.
func prepareFiles(m *fs.Mount, dev *fs.MemDev, cfg PageCacheConfig) []uint64 {
	ids := make([]uint64, cfg.Files)
	page := make([]byte, fs.PageSize)
	for i := 0; i < cfg.Files; i++ {
		id, err := m.Create(fmt.Sprintf("/data/file-%d", i))
		if err != nil {
			panic(err)
		}
		for p := 0; p < cfg.PagesPer; p++ {
			for j := range page {
				page[j] = byte((i + 1) * (p + 1))
			}
			m.Write(id, uint64(p)*fs.PageSize, page)
		}
		m.Fsync(id)
		ids[i] = id
	}
	return ids
}
