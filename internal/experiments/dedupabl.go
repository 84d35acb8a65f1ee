package experiments

import (
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/memsys"
)

// Ablation E models many processes mapping the same runtime images. The
// run is a few hundred page writes, so it has one size.
const (
	// dedupSets is the number of groups of identical pages; each group
	// has dedupCopies mappings of the same content (e.g. the same shared
	// library text mapped by many processes).
	dedupSets   = 16
	dedupCopies = 8
	// dedupUniquePages are additional non-duplicated pages.
	dedupUniquePages = 32
)

// DedupAblation quantifies §3.3's deduplication: identical global pages
// collapse onto one frame (copy-on-write), shrinking rack memory use.
func DedupAblation() *Result {
	res := newResult("Ablation E: content-based page deduplication over global memory",
		"metric", "value")
	f := fabric.New(fabric.Config{GlobalSize: 256 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	frames := memsys.NewGlobalFrames(f, 8192)
	arena := alloc.NewArena(f, 64<<20)
	space := memsys.NewSpace(f, 1, frames, arena.NodeAllocator(f.Node(0), 0), 2048)
	mmu := space.Attach(f.Node(0), arena.NodeAllocator(f.Node(0), 0), memsys.NewLocalStore(f.Node(0)), 512)

	const totalPages = dedupSets*dedupCopies + dedupUniquePages
	if err := mmu.MMap(0x100000, totalPages, memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		panic(err)
	}
	page := make([]byte, memsys.PageSize)
	vpnBase := uint64(0x100000 >> memsys.PageShift)
	va := func(i int) uint64 { return (vpnBase + uint64(i)) << memsys.PageShift }
	idx := 0
	for set := 0; set < dedupSets; set++ {
		for j := range page {
			page[j] = byte(set*7 + j%251)
		}
		for c := 0; c < dedupCopies; c++ {
			mmu.Write(va(idx), page)
			idx++
		}
	}
	for u := 0; u < dedupUniquePages; u++ {
		for j := range page {
			page[j] = byte(u*13 + j%241 + 101)
		}
		mmu.Write(va(idx), page)
		idx++
	}

	merged := mmu.DedupPass()
	framesAfter := totalPages - merged
	saved := merged * memsys.PageSize

	res.Table.AddRow("mapped pages", fmt.Sprintf("%d", totalPages))
	res.Table.AddRow("pages merged", fmt.Sprintf("%d", merged))
	res.Table.AddRow("frames after dedup", fmt.Sprintf("%d", framesAfter))
	res.Table.AddRow("memory saved", fmt.Sprintf("%d KiB", saved/1024))
	res.Ratios["memory before/after dedup"] = float64(totalPages) / float64(framesAfter)
	res.Ratios["pages merged"] = float64(merged)
	return res
}
