package main

import (
	"encoding/binary"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/loadgen"
	"flacos/internal/memsys"
	"flacos/internal/tiering"
)

// memTierConfig sizes the tiered-memory workload: every node's MMU on one
// address space, a span prefaulted into global memory and mostly demoted
// cold, Zipfian page accesses in rounds, and the tiering daemon stepped
// once at every round boundary. Caches are unbounded and TLBs larger than
// the span, as in the repo's tiering experiment, so nothing is evicted in
// map order and the run is bit-stable.
type memTierConfig struct {
	nodes, spanPages, ops, rounds int
	localPagesPerNode, maxMoves   int
	daemon                        bool
}

const (
	tierRecordBytes = 64
	tierBaseVA      = uint64(4) << 30
	tierWarmShare   = 0.25 // of the span stays in the premium global tier
	tierHomeShare   = 0.95 // of a page's rounds are served by its home node
	tierReadShare   = 0.7
)

func tierVA(page uint32) uint64 { return tierBaseVA + uint64(page)*memsys.PageSize }

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// runMemTier is one repetition. Output check: every page holds a 64-byte
// record whose eight words all equal the page's sequence number, bumped by
// every write. A read that returns a uniform but old record is stale, one
// with mixed words is torn, and a page that fails the sweep after the run
// lost a write in a tier move; all three fail.
func runMemTier(cfg memTierConfig, seed uint64, tr *tracer) *rep {
	m := startRep(tr)
	kRead, kWrite, kStep := tr.kind("memsys", "read"), tr.kind("memsys", "write"), tr.kind("tiering", "step")
	span, nodes := cfg.spanPages, cfg.nodes

	// Inputs from the seed: per round, per node, the accesses it serves.
	// A page has one home node and exactly one accessor per round, so no
	// two nodes touch a page between two daemon steps. Homes do not depend
	// on the seed: which node owns the few hottest pages decides how evenly
	// the nodes are loaded, and that is the workload's shape, not its noise.
	home := func(page uint32) int { return int(mix64(uint64(page)) % uint64(nodes)) }
	accessor := func(page uint32, round int) int {
		h := mix64(uint64(page)<<24 ^ uint64(round)*0x100000001b3 ^ seed)
		if float64(h&0xfffff)/(1<<20) < tierHomeShare || nodes == 1 {
			return home(page)
		}
		return (home(page) + 1 + int((h>>24)%uint64(nodes-1))) % nodes
	}
	type access struct {
		page  uint32
		write bool
	}
	zipf := loadgen.NewZipf(loadgen.NewRand(seed), span, 0.99)
	r := loadgen.NewRand(seed + 1)
	plan := make([][][]access, cfg.rounds)
	for round := range plan {
		plan[round] = make([][]access, nodes)
		for i := 0; i < cfg.ops/cfg.rounds; i++ {
			// An odd multiplier over the power-of-two span: address order
			// carries no hotness, so the initial warm set is an uninformed one.
			page := uint32(uint64(zipf.Next()) * 0x9e3779b97f4a7c15 & uint64(span-1))
			n := accessor(page, round)
			plan[round][n] = append(plan[round][n], access{page, r.Float64() >= tierReadShare})
		}
	}

	warmPages := int(tierWarmShare * float64(span))
	// Frames for the span plus an eighth for pages in flight between tiers;
	// an arena for the radix page table and the daemon's bookkeeping.
	frameCount := uint64(span + span/8 + 64)
	arenaBytes := uint64(4<<20 + span*768)
	f := fabric.New(fabric.Config{
		GlobalSize:         frameCount*memsys.PageSize + arenaBytes + 16<<20,
		Nodes:              nodes,
		CacheCapacityLines: -1,
		Latency:            fabric.DefaultLatency(),
	})
	frames := memsys.NewGlobalFrames(f, frameCount)
	arena := alloc.NewArena(f, arenaBytes)
	sp := memsys.NewSpace(f, 1, frames, arena.NodeAllocator(f.Node(0), 0), 4096)
	mmus := make([]*memsys.MMU, nodes)
	lanes := make([][]int, nodes)
	for n := range mmus {
		mmus[n] = sp.Attach(f.Node(n), arena.NodeAllocator(f.Node(n), 0), memsys.NewLocalStore(f.Node(n)), span+16)
		lanes[n] = []int{n}
	}
	if err := mmus[0].MMap(tierBaseVA, uint64(span), memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		panic(err)
	}

	seq := make([]uint64, span)
	var buf [tierRecordBytes]byte
	record := func(s uint64) []byte {
		for w := 0; w < tierRecordBytes; w += 8 {
			binary.LittleEndian.PutUint64(buf[w:], s)
		}
		return buf[:]
	}
	intact := func(want uint64) bool {
		for w := 0; w < tierRecordBytes; w += 8 {
			if binary.LittleEndian.Uint64(buf[w:]) != want {
				return false
			}
		}
		return true
	}

	// Prefault every page from its home node, then demote everything past
	// the address-ordered warm set to the cold tier. Zero-filling and moving
	// a page leaves all 64 of its lines in the unbounded caches; flushing
	// every few thousand pages keeps set-up's footprint near the span's own.
	flush := func() {
		for n := 0; n < nodes; n++ {
			f.Node(n).FlushAll()
		}
	}
	const chunk = 4096
	for p := 0; p < span; p++ {
		seq[p] = 1
		if err := mmus[home(uint32(p))].Write(tierVA(uint32(p)), record(1)); err != nil {
			panic(err)
		}
		if p%chunk == chunk-1 {
			flush()
		}
	}
	vpns := make([]uint64, 0, chunk)
	for lo := warmPages; lo < span; lo += chunk {
		vpns = vpns[:0]
		for p := lo; p < min(lo+chunk, span); p++ {
			vpns = append(vpns, tierVA(uint32(p))>>memsys.PageShift)
		}
		if got := mmus[0].DemoteToColdBatch(vpns); len(got) != len(vpns) {
			panic("bench: mem-tier initial demotion moved too few pages")
		}
		flush()
	}
	var d *tiering.Daemon
	if cfg.daemon {
		// The tiering experiment's policy — slow decay (about four rounds of
		// memory), promote at about one hit a round — but pinning local at two
		// hits a round, not four: at four, half of all accesses are local hits
		// and the median sits on the edge between two cost levels, flipping
		// from 200 to 630 ns with the seed.
		d = tiering.New(sp, mmus, tiering.Config{
			Decay: 0.75, PromoteHeat: 4, LocalHeat: 8,
			LocalBudgetPages: cfg.localPagesPerNode, WarmBudgetPages: warmPages, MaxMovesPerStep: cfg.maxMoves,
		}, nil)
		for p := 0; p < span; p++ {
			t := memsys.TierCold
			if p < warmPages {
				t = memsys.TierWarm
			}
			d.Prime(tierVA(uint32(p))>>memsys.PageShift, t, -1)
		}
		d.Attach()
		defer d.Detach()
	}
	// Warm what the workload touches: one read of every page's record from
	// its home node.
	for p := 0; p < span; p++ {
		if err := mmus[home(uint32(p))].Read(tierVA(uint32(p)), buf[:]); err != nil || !intact(1) {
			panic("bench: mem-tier warm-up read failed")
		}
	}
	m.layer["warmup_ops"] = float64(2 * span)
	var mmu0 memsys.MMUStatsSnapshot
	for _, mm := range mmus {
		mmu0 = addMMU(mmu0, mm.Stats())
	}

	m.measure(f, lanes, cfg.ops, cfg.ops)
	for round := range plan {
		// One driver steps the nodes round-robin: op i of every node's
		// list, then op i+1.
		for i, busy := 0, true; busy; i++ {
			busy = false
			for n, list := range plan[round] {
				if i >= len(list) {
					continue
				}
				busy = true
				a := list[i]
				m.begin()
				if a.write {
					seq[a.page]++
					tr.begin(kWrite)
					err := mmus[n].Write(tierVA(a.page), record(seq[a.page]))
					tr.end(kWrite)
					m.end(classWrite, n, err == nil)
				} else {
					tr.begin(kRead)
					err := mmus[n].Read(tierVA(a.page), buf[:])
					tr.end(kRead)
					m.end(classRead, n, err == nil && intact(seq[a.page]))
				}
			}
		}
		// A step lands between ops: it costs its nodes simulated time, and
		// so throughput, but is part of no op's latency.
		if d != nil {
			tr.begin(kStep)
			d.Step()
			tr.end(kStep)
		}
	}
	m.finish()

	var mmu1 memsys.MMUStatsSnapshot
	for _, mm := range mmus {
		mmu1 = addMMU(mmu1, mm.Stats())
	}
	kops := float64(m.ops) / 1000
	m.layer["memsys.tlb_hit_ratio"] = ratio(float64(mmu1.TLBHits-mmu0.TLBHits), float64(mmu1.TLBHits-mmu0.TLBHits+mmu1.TLBMisses-mmu0.TLBMisses))
	m.layer["memsys.faults_per_kop"] = float64(mmu1.PageFaults-mmu0.PageFaults) / kops
	m.layer["memsys.migrations_per_kop"] = float64(mmu1.Migrations-mmu0.Migrations+mmu1.Promotions-mmu0.Promotions+mmu1.Demotions-mmu0.Demotions) / kops
	m.layer["memsys.shootdowns_per_kop"] = float64(mmu1.ShootdownsSent-mmu0.ShootdownsSent) / kops
	if d != nil {
		s := d.Stats()
		moved := s.PromotedLocal + s.PromotedWarm + s.DemotedWarm + s.DemotedCold
		m.layer["tiering.moves_per_step"] = ratio(float64(moved), float64(s.Steps))
		m.layer["tiering.move_success_ratio"] = ratio(float64(moved), float64(moved+s.FailedMoves))
	}

	// The sweep: every page read back from its home node.
	if plantFault {
		seq[0]++
	}
	for p := 0; p < span; p++ {
		m.audited++
		if err := mmus[home(uint32(p))].Read(tierVA(uint32(p)), buf[:]); err != nil || !intact(seq[p]) {
			m.failed++
		}
	}
	return m.rep
}

func addMMU(a, b memsys.MMUStatsSnapshot) memsys.MMUStatsSnapshot {
	a.TLBHits += b.TLBHits
	a.TLBMisses += b.TLBMisses
	a.PageFaults += b.PageFaults
	a.Migrations += b.Migrations
	a.Promotions += b.Promotions
	a.Demotions += b.Demotions
	a.ShootdownsSent += b.ShootdownsSent
	return a
}
