package experiments

import (
	"encoding/binary"
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/loadgen"
	"flacos/internal/memsys"
	"flacos/internal/tiering"
)

// TieringConfig parameterizes the hotness-tiered placement experiment.
type TieringConfig struct {
	// SpanPages is the mapped span, in pages; must be a power of two.
	// The full configuration maps over a million pages so tier placement
	// is a capacity problem, not a cache curiosity.
	SpanPages int
	// Ops is the total measured page accesses per phase.
	Ops int
	// Rounds splits Ops into barriered rounds; the daemon steps once per
	// round boundary, on deterministic virtual time.
	Rounds int
	// LocalPagesPerNode is the daemon's node-local DRAM budget per node.
	LocalPagesPerNode int
	// Gate is the daemon/static speedup the experiment must reach.
	Gate float64
}

// DefaultTiering is the acceptance configuration: a 1M-page (4 GiB)
// span, 3M accesses at Zipf 0.99, speedup gate 1.3x.
func DefaultTiering() TieringConfig {
	return TieringConfig{
		SpanPages:         1 << 20,
		Ops:               3_000_000,
		Rounds:            24,
		LocalPagesPerNode: 24576,
		Gate:              1.3,
	}
}

// QuickTiering is a sixty-fourth of the span and a twenty-fifth of the
// ops: the same Zipf shape, but fixed per-move costs amortize over far
// fewer accesses, so its bar only proves the daemon still wins while the
// full run enforces 1.3x.
func QuickTiering() TieringConfig {
	return TieringConfig{
		SpanPages:         1 << 14,
		Ops:               120_000,
		Rounds:            12,
		LocalPagesPerNode: 1024,
		Gate:              1.15,
	}
}

const (
	// tierNodes is the rack size (one accessor worker per node).
	tierNodes = 4
	// tierSkew is the Zipfian exponent of the page-popularity distribution.
	tierSkew = 0.99
	// tierHomeFrac is the probability a page's round is served by its home
	// node (the page's dominant accessor); the rest of the rounds go to a
	// random other node. Accessor choice is per (page, round), so one
	// round never has two nodes fighting over a page — migration churn
	// comes from round-to-round accessor changes, as in a real scheduler.
	tierHomeFrac = 0.95
	// tierReadFrac is the per-op probability of a read (vs a write).
	tierReadFrac = 0.7
	// tierWarmFrac sizes the premium ("warm") global tier as a fraction of
	// the span. The static baseline keeps an address-ordered slice of the
	// span warm; the daemon phase gets the same capacity as its warm
	// budget and must EARN better placement by observing access heat.
	tierWarmFrac = 0.25
	// tierMaxMovesPerStep bounds the daemon's per-step migration batch.
	tierMaxMovesPerStep = 16384
	// tierSeed drives every stream; same seed, same bits out.
	tierSeed = 1
)

// tierOp is one generated access.
type tierOp struct {
	page  uint32
	write bool
}

// tierPlan is the pre-generated workload both phases replay: per round,
// per node, the access list. Generated once, single-threaded, so the two
// phases run the IDENTICAL op sequence and differ only in placement.
type tierPlan struct {
	rounds  [][][]tierOp
	perNode []int // total ops per node
	total   int
}

const tierRecordBytes = 64

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// tierHome is a page's home node: its dominant accessor across the run.
func tierHome(page uint32) int {
	return int(mix64(uint64(page)^tierSeed*0x9E3779B97F4A7C15) % tierNodes)
}

// tierAccessor picks the ONE node that serves page's accesses in round r.
func tierAccessor(page uint32, round int) int {
	home := tierHome(page)
	h := mix64(uint64(page)<<24 ^ uint64(round)*0x100000001b3 ^ tierSeed)
	if float64(h&0xFFFFF)/float64(1<<20) < tierHomeFrac {
		return home
	}
	return (home + 1 + int((h>>24)%(tierNodes-1))) % tierNodes
}

// tierPermute maps a Zipf rank to a page number bijectively (odd
// multiplier over a power-of-two span), so page ADDRESS order carries no
// hotness information — the static baseline's address-ordered warm set is
// a fair, uninformed 25% sample, not an accidental oracle.
func tierPermute(rank, span int) uint32 {
	return uint32((uint64(rank) * 0x9E3779B97F4A7C15) & uint64(span-1))
}

func generateTierPlan(cfg *TieringConfig) *tierPlan {
	zipf := loadgen.NewZipf(loadgen.NewRand(tierSeed), cfg.SpanPages, tierSkew)
	rnd := loadgen.NewRand(tierSeed + 1)
	perRound := cfg.Ops / cfg.Rounds
	p := &tierPlan{perNode: make([]int, tierNodes)}
	for r := 0; r < cfg.Rounds; r++ {
		byNode := make([][]tierOp, tierNodes)
		for i := 0; i < perRound; i++ {
			page := tierPermute(zipf.Next(), cfg.SpanPages)
			node := tierAccessor(page, r)
			byNode[node] = append(byNode[node], tierOp{page: page, write: rnd.Float64() >= tierReadFrac})
			p.perNode[node]++
			p.total++
		}
		p.rounds = append(p.rounds, byNode)
	}
	return p
}

// tierPhase is one placement policy's measured run.
type tierPhase struct {
	daemon bool

	makespanNS    uint64
	opsPerSec     float64
	meanServiceNS []uint64

	stale, torn, lost int
	migrations        uint64
	dstats            tiering.Stats
	census            [4]int // final page count per memsys.Tier
}

func (p *tierPhase) mode() string {
	if p.daemon {
		return "daemon"
	}
	return "static"
}

// tierRecord builds the page's 64-byte record: 8 words, every one the
// page's current sequence number. Cross-node line transfers are atomic at
// word granularity, and no two nodes ever access a page in the same round,
// so a correct run reads records whose every word equals the page's shadow
// sequence — anything else is a stale or torn read, counted exactly.
func tierRecord(buf []byte, seq uint64) {
	for w := 0; w < tierRecordBytes; w += 8 {
		binary.LittleEndian.PutUint64(buf[w:], seq)
	}
}

// checkTierRecord classifies one read record against the expected seq:
// 0 = intact, 1 = stale (uniform but wrong seq), 2 = torn (mixed words).
func checkTierRecord(buf []byte, want uint64) int {
	w0 := binary.LittleEndian.Uint64(buf)
	uniform := true
	for w := 8; w < tierRecordBytes; w += 8 {
		if binary.LittleEndian.Uint64(buf[w:]) != w0 {
			uniform = false
			break
		}
	}
	switch {
	case uniform && w0 == want:
		return 0
	case uniform:
		return 1
	default:
		return 2
	}
}

const tierBaseVA = uint64(4) << 30

func tierVA(page uint32) uint64 { return tierBaseVA + uint64(page)*memsys.PageSize }

// runTierPhase builds a fresh rack, lays out the identical initial
// placement (whole span faulted warm, then everything outside the
// address-ordered warm set demoted cold), replays the plan, and audits.
// Determinism chain: unlimited fabric caches (no eviction heuristics),
// TLBs sized past the span (no arbitrary map eviction), one accessor per
// (page, round), pre-generated op streams replayed by one goroutine, and
// daemon decisions that are sorted at every stage — same seed, same bits,
// run after run.
func runTierPhase(cfg *TieringConfig, plan *tierPlan, daemonOn bool) *tierPhase {
	span := cfg.SpanPages
	const nodes = tierNodes
	warmPages := int(tierWarmFrac * float64(span))
	arenaBytes := uint64(48<<20) + uint64(span)*32
	// Frame pool + arena + per-node radix page tables (the last grow with
	// both span and rack size) + fixed slack for everything else.
	ptBytes := nodes * uint64(span) * 32
	f := fabric.New(fabric.Config{
		GlobalSize:         uint64(span+65536)*memsys.PageSize + arenaBytes + ptBytes + 64<<20,
		Nodes:              nodes,
		CacheCapacityLines: -1,
		Latency:            fabric.DefaultLatency(),
	})
	framePool := memsys.NewGlobalFrames(f, uint64(span+65536))
	arena := alloc.NewArena(f, arenaBytes)
	sp := memsys.NewSpace(f, 1, framePool, arena.NodeAllocator(f.Node(0), 0), 4096)
	mmus := make([]*memsys.MMU, nodes)
	for n := 0; n < nodes; n++ {
		mmus[n] = sp.Attach(f.Node(n), arena.NodeAllocator(f.Node(n), 0),
			memsys.NewLocalStore(f.Node(n)), span+16)
	}
	if err := mmus[0].MMap(tierBaseVA, uint64(span), memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		panic(err)
	}

	// Prefault every page with seq 1 from its home node, then demote the
	// span's tail to the cold tier: pages [0, warmPages) are the static
	// policy's entire placement decision. All outside the measurement.
	shadow := make([]uint64, span)
	var rec [tierRecordBytes]byte
	tierRecord(rec[:], 1)
	for p := 0; p < span; p++ {
		if err := mmus[tierHome(uint32(p))].Write(tierVA(uint32(p)), rec[:]); err != nil {
			panic(err)
		}
		shadow[p] = 1
	}
	const demoteChunk = 4096
	for lo := warmPages; lo < span; lo += demoteChunk {
		hi := lo + demoteChunk
		if hi > span {
			hi = span
		}
		vpns := make([]uint64, 0, hi-lo)
		for p := lo; p < hi; p++ {
			vpns = append(vpns, tierVA(uint32(p))>>memsys.PageShift)
		}
		if got := mmus[0].DemoteToColdBatch(vpns); len(got) != len(vpns) {
			panic(fmt.Sprintf("tiering: initial demote moved %d/%d pages", len(got), len(vpns)))
		}
	}

	var d *tiering.Daemon
	if daemonOn {
		// Slow decay gives the tracker ~4 rounds of memory (steady-state
		// heat of an r-hits/round page is 4r), so intermittently-hit tail
		// pages hold a stable heat instead of fading to zero and churning
		// in and out of premium capacity against same-rate peers. The
		// thresholds are the same access rates as the daemon defaults
		// under their faster decay: promote at ~1 hit/round, pin local at
		// ~4 hits/round on the dominant node.
		d = tiering.New(sp, mmus, tiering.Config{
			Decay:            0.75,
			PromoteHeat:      4,
			LocalHeat:        16,
			LocalBudgetPages: cfg.LocalPagesPerNode,
			WarmBudgetPages:  warmPages,
			MaxMovesPerStep:  tierMaxMovesPerStep,
		}, nil)
		for p := 0; p < span; p++ {
			vpn := tierVA(uint32(p)) >> memsys.PageShift
			if p < warmPages {
				d.Prime(vpn, memsys.TierWarm, -1)
			} else {
				d.Prime(vpn, memsys.TierCold, -1)
			}
		}
		d.Attach()
		defer d.Detach()
	}

	ph := &tierPhase{daemon: daemonOn}
	mark := markClocks(f, nodes)

	// Measured rounds: one goroutine steps the nodes round-robin — op i of
	// every node's list, then op i+1 — so each node's virtual clock runs
	// through the same interleaving on every run, at any GOMAXPROCS.
	// Violations are exact because each page has exactly one accessor per
	// round and tier moves happen only at the round boundary.
	var buf [tierRecordBytes]byte
	for r := 0; r < cfg.Rounds; r++ {
		for i, busy := 0, true; busy; i++ {
			busy = false
			for n, ops := range plan.rounds[r] {
				if i >= len(ops) {
					continue
				}
				busy = true
				op := ops[i]
				if op.write {
					seq := shadow[op.page] + 1
					tierRecord(buf[:], seq)
					if err := mmus[n].Write(tierVA(op.page), buf[:]); err != nil {
						panic(err)
					}
					shadow[op.page] = seq
					continue
				}
				if err := mmus[n].Read(tierVA(op.page), buf[:]); err != nil {
					panic(err)
				}
				switch checkTierRecord(buf[:], shadow[op.page]) {
				case 1:
					ph.stale++
				case 2:
					ph.torn++
				}
			}
		}
		if d != nil {
			d.Step()
		}
	}

	perNode, makespan := mark.since(f)
	ph.makespanNS = makespan
	ph.meanServiceNS = meanService(perNode, func(n int) int { return plan.perNode[n] })
	ph.opsPerSec = opsPerSec(plan.total, ph.makespanNS)
	for _, m := range mmus {
		ph.migrations += m.Stats().Migrations
	}
	if d != nil {
		ph.dstats = d.Stats()
	}

	// Post-measurement audit: the final tier census, then every page read
	// back against its shadow sequence — a write that vanished in a tier
	// move (or a page serving stale content) lands here as lost.
	for p := 0; p < span; p++ {
		tier, _ := mmus[0].TierOf(tierVA(uint32(p)) >> memsys.PageShift)
		ph.census[tier]++
	}
	for p := 0; p < span; p++ {
		if err := mmus[tierHome(uint32(p))].Read(tierVA(uint32(p)), buf[:]); err != nil {
			panic(err)
		}
		if checkTierRecord(buf[:], shadow[p]) != 0 {
			ph.lost++
		}
	}
	return ph
}

// Tiering measures what the rack-wide tiering daemon is worth: the same
// Zipfian multi-node workload over a multi-million-page span runs twice —
// once on a static placement (an uninformed warm set, everything else in
// the cold capacity tier) and once with internal/tiering's daemon closing
// the placement loop from MMU access samples. Both phases spend identical
// premium capacity; only the placement policy differs.
//
//   - Placement: the daemon promotes sustained-hot pages into their
//     dominant accessor's node-local DRAM, keeps the warm tier packed
//     with observed-hot (not address-lucky) pages, and demotes faded
//     pages back to cold — under promote/demote hysteresis, per-tier
//     budgets and a bounded per-step move batch.
//   - Integrity: every page carries a sequence-stamped record audited on
//     every read and again in a full-span sweep after the run; a tier
//     move that loses a write, serves stale bytes, or tears a record is
//     counted, and the gate tolerates exactly zero.
//   - Open loop: the daemon phase's measured per-node service times are
//     replayed against Poisson arrivals at fractions of capacity for
//     honest latency under load and the saturation knee.
//
// It fails on any integrity violation, a daemon/static speedup below
// Gate, a daemon that never actually promoted or demoted anything, or
// low-load achieved throughput under 0.95x offered.
func Tiering(cfg TieringConfig) *Result {
	res := newResult("Hotness-tiered memory: daemon placement vs static tiers",
		"phase", "config", "metric", "value")
	plan := generateTierPlan(&cfg)

	static := runTierPhase(&cfg, plan, false)
	daemon := runTierPhase(&cfg, plan, true)

	speedup := ratio(float64(static.makespanNS), float64(daemon.makespanNS))
	for _, ph := range []*tierPhase{static, daemon} {
		res.Table.AddRow("placement", ph.mode(), "makespan | ops/s (virtual)",
			fmt.Sprintf("%s | %.0f", ns(float64(ph.makespanNS)), ph.opsPerSec))
		res.Table.AddRow("placement", ph.mode(), "final tiers local/warm/cold",
			fmt.Sprintf("%d / %d / %d", ph.census[memsys.TierLocal], ph.census[memsys.TierWarm], ph.census[memsys.TierCold]))
		res.Table.AddRow("integrity", ph.mode(), "stale/torn/lost",
			fmt.Sprintf("%d / %d / %d", ph.stale, ph.torn, ph.lost))
		res.Table.AddRow("placement", ph.mode(), "demand migrations",
			fmt.Sprintf("%d", ph.migrations))
		if v := ph.stale + ph.torn + ph.lost; v > 0 {
			res.Fail("%s placement: %d stale/torn/lost records", ph.mode(), v)
		}
	}
	ds := daemon.dstats
	res.Table.AddRow("placement", "daemon", "promoted local/warm",
		fmt.Sprintf("%d / %d", ds.PromotedLocal, ds.PromotedWarm))
	res.Table.AddRow("placement", "daemon", "demoted warm/cold",
		fmt.Sprintf("%d / %d", ds.DemotedWarm, ds.DemotedCold))
	res.Table.AddRow("placement", "daemon", "displaced | failed moves",
		fmt.Sprintf("%d | %d", ds.Displaced, ds.FailedMoves))
	res.Table.AddRow("placement", "speedup", "daemon/static",
		fmt.Sprintf("%.2fx", speedup))
	res.Ratios["daemon/static makespan speedup"] = speedup
	if speedup < cfg.Gate {
		res.Fail("daemon placement reached %.2fx static, want >= %.2fx", speedup, cfg.Gate)
	}
	if ds.PromotedLocal == 0 || ds.PromotedWarm == 0 || ds.DemotedCold == 0 {
		res.Fail("the daemon never moved a page in some direction (promoted local/warm %d/%d, demoted cold %d)",
			ds.PromotedLocal, ds.PromotedWarm, ds.DemotedCold)
	}

	// Open-loop replay of the daemon phase's capacity.
	sweep := openLoop(res, "daemon placement",
		func(fac float64) string { return fmt.Sprintf("%.1fx capacity", fac) }, "sweep",
		daemon.opsPerSec, plan.total, daemon.meanServiceNS, tierSeed+7777)
	res.Bench = &Bench{
		Name:      "tiering",
		OpsPerSec: daemon.opsPerSec,
		P50NS:     float64(sweep[0].P50NS),
		P99NS:     float64(sweep[0].P99NS),
		Rows:      sweep,
	}
	return res
}
