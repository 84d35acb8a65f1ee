package experiments

import (
	"fmt"
	"math"
	"time"

	"flacos/internal/fabric"
)

// FabricConfig parameterizes the fabric fast-path micro-benchmark.
type FabricConfig struct {
	// HitReps / MissReps / AtomicReps size the wall-clock measurement
	// loops for the scalar ops. The VIRTUAL cost rows never depend on
	// them: each is taken from a single op's deterministic charge, so the
	// committed artifact is identical under -quick and full runs.
	HitReps, MissReps, AtomicReps int
	// RangedReps is the wall-measurement loop count per ranged size.
	RangedReps int
	// GateHookDispatch, when set, additionally requires a hooked fence to
	// cost more wall time than a no-hook fence — hook dispatch is a
	// double-digit fraction of a fence's wall cost, so it is the one op
	// where the overhead the hooked flag keeps off the common case
	// separates cleanly from clock noise. The miss path's saving is
	// reported alongside but too small a fraction of a miss to gate on.
	// Off under -quick where the loops are too short even for the fence.
	GateHookDispatch bool
}

// DefaultFabric sizes the measurement loops so per-op wall numbers come
// from tens of thousands of samples.
func DefaultFabric() FabricConfig {
	return FabricConfig{
		HitReps:          200_000,
		MissReps:         50_000,
		AtomicReps:       100_000,
		RangedReps:       5_000,
		GateHookDispatch: true,
	}
}

// QuickFabric shortens the wall loops and drops the hook-dispatch gate.
func QuickFabric() FabricConfig {
	return FabricConfig{HitReps: 40_000, MissReps: 10_000, AtomicReps: 20_000, RangedReps: 1_000}
}

// fabricRangeSizes are the ranged write-back/invalidate sizes in lines.
var fabricRangeSizes = []int{1, 4, 16, 64}

// fabricSpeedupGate is the required wall-ns/op improvement of one ranged
// write-back over the pinned per-line baseline at fabricGateLines, with
// the common dirtying-store cost subtracted from both sides.
const fabricSpeedupGate = 1.5

// fabricGateLines is the ranged size the speedup gate is evaluated at.
const fabricGateLines = 16

// Fabric measures the memory fabric's per-op costs and gates the ranged
// fast path:
//
//   - a virtual-ns cost row per op kind (read/write hit, read miss,
//     ranged write-back and invalidate at 1/4/16/64 lines, atomic RMW,
//     fence), each taken from a single op's deterministic charge — these
//     are the rows committed to BENCH_fabric.json and must be bit-stable;
//   - a wall-ns/op column for the same ops from host-clock measurement
//     loops (reported in the table, never committed);
//   - gate: the ranged write-back's modeled virtual charge must equal the
//     pinned per-line baseline's EXACTLY at every size (batching is a
//     wall-cost optimization, not a model change);
//   - gate: at 16 lines the ranged call must beat the per-line baseline
//     by fabricSpeedupGate in wall ns/op once the common dirtying stores are
//     subtracted;
//   - gate (full runs): a fence with an op hook installed must cost more
//     wall time than the no-hook fence — the dispatch cost the per-node
//     hooked flag keeps off the common path, measured on the op where it
//     is the largest fraction. The miss path's no-hook saving is reported
//     alongside.
func Fabric(cfg FabricConfig) *Result {
	res := newResult("Fabric fast path: per-op costs and ranged batching",
		"op", "virtual", "wall", "notes")

	newRack := func() (*fabric.Node, fabric.GPtr) {
		f := fabric.New(fabric.Config{
			GlobalSize:         64 << 20,
			Nodes:              1,
			CacheCapacityLines: -1,
			Latency:            fabric.DefaultLatency(),
		})
		return f.Node(0), f.Reserve(1<<20, fabric.LineSize)
	}

	// ---- Virtual cost rows: one op each, charged deterministically ----
	n, g := newRack()
	vcost := func(prep, op func()) float64 {
		prep()
		v0 := n.VirtualNS()
		op()
		return float64(n.VirtualNS() - v0)
	}
	line := func(l int) fabric.GPtr { return g.Add(uint64(l) * fabric.LineSize) }
	dirty := func(lines int) {
		for l := 0; l < lines; l++ {
			n.Store64(line(l), uint64(l)+1)
		}
	}
	resident := func(lines int) {
		for l := 0; l < lines; l++ {
			n.Load64(line(l))
		}
	}

	vReadHit := vcost(func() { n.Load64(g) }, func() { n.Load64(g) })
	vWriteHit := vcost(func() { n.Load64(g) }, func() { n.Store64(g, 1) })
	vReadMiss := vcost(func() { n.InvalidateRange(g, 8) }, func() { n.Load64(g) })
	vAtomic := vcost(func() {}, func() { n.Add64(g, 1) })
	vFence := vcost(func() {}, func() { n.Fence() })
	vWBR := map[int]float64{}
	vINV := map[int]float64{}
	for _, lines := range fabricRangeSizes {
		sz := uint64(lines) * fabric.LineSize
		vWBR[lines] = vcost(func() { dirty(lines) }, func() { n.WriteBackRange(g, sz) })
		vINV[lines] = vcost(func() { resident(lines) }, func() { n.InvalidateRange(g, sz) })

		// Gate: the per-line baseline charges the same virtual cost.
		dirty(lines)
		v0 := n.VirtualNS()
		n.WriteBackRangePerLine(g, sz)
		if legacy := float64(n.VirtualNS() - v0); legacy != vWBR[lines] {
			res.Fail("wbr-%d diverged from the per-line cost model: ranged charges %v ns, per-line %v ns",
				lines, vWBR[lines], legacy)
		}
	}

	// ---- Wall cost loops ----
	wallOnce := func(reps int, fn func(i int)) float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn(i)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps)
	}
	wall := func(reps int, fn func(i int)) float64 {
		best := 0.0
		for attempt := 0; attempt < 3; attempt++ { // best-of-3 damps scheduler noise
			if d := wallOnce(reps, fn); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	n.Load64(g)
	wReadHit := wall(cfg.HitReps, func(i int) { n.Load64(g) })
	wWriteHit := wall(cfg.HitReps, func(i int) { n.Store64(g, uint64(i)) })
	wMissPair := wall(cfg.MissReps, func(i int) { n.InvalidateRange(g, 8); n.Load64(g) })
	wAtomic := wall(cfg.AtomicReps, func(i int) { n.Add64(g, 1) })
	wFence := wall(cfg.AtomicReps, func(i int) { n.Fence() })

	wWBR := map[int]float64{}
	wINV := map[int]float64{}
	wDirty := map[int]float64{}
	for _, lines := range fabricRangeSizes {
		sz := uint64(lines) * fabric.LineSize
		wDirty[lines] = wall(cfg.RangedReps, func(i int) { dirty(lines) })
		// Floor at 1 ns: the subtraction can only go non-positive through
		// clock noise, and the gate below divides by this.
		wWBR[lines] = math.Max(1,
			wall(cfg.RangedReps, func(i int) { dirty(lines); n.WriteBackRange(g, sz) })-wDirty[lines])
		wINV[lines] = wall(cfg.RangedReps, func(i int) { resident(lines); n.InvalidateRange(g, sz) })
	}

	// ---- Gate: ranged vs per-line wall speedup at 16 lines ----
	// The three loops (dirtying stores alone, dirty+ranged, dirty+legacy)
	// interleave round-robin and each keeps its fastest round, so a noisy
	// neighbor or a frequency shift hits all three alike instead of
	// skewing whichever loop it landed on. A ratio below the gate earns
	// two full re-measurements before the run fails: the true separation
	// sits well above the gate, so only a genuine regression fails all
	// three attempts.
	gl := fabricGateLines
	gsz := uint64(gl) * fabric.LineSize
	var wLegacy float64
	measureSpeedup := func() float64 {
		var dMin, rMin, lMin float64
		keep := func(cur, d float64) float64 {
			if cur == 0 || d < cur {
				return d
			}
			return cur
		}
		for round := 0; round < 6; round++ {
			dMin = keep(dMin, wallOnce(cfg.RangedReps, func(i int) { dirty(gl) }))
			rMin = keep(rMin, wallOnce(cfg.RangedReps, func(i int) { dirty(gl); n.WriteBackRange(g, gsz) }))
			lMin = keep(lMin, wallOnce(cfg.RangedReps, func(i int) { dirty(gl); n.WriteBackRangePerLine(g, gsz) }))
		}
		wLegacy = math.Max(1, lMin-dMin)
		return wLegacy / math.Max(1, rMin-dMin)
	}
	speedup := measureSpeedup()
	for attempt := 0; attempt < 2 && speedup < fabricSpeedupGate; attempt++ {
		if s := measureSpeedup(); s > speedup {
			speedup = s
		}
	}
	res.Ratios[fmt.Sprintf("wbr-%d ranged vs per-line (wall)", gl)] = speedup
	if speedup < fabricSpeedupGate {
		res.Fail("ranged wbr-%d is %.2fx the per-line baseline in wall time, want >= %.1fx", gl, speedup, fabricSpeedupGate)
	}

	// ---- No-hook vs hooked event paths ----
	// A fresh rack so the counting hook never sees the loops above. The
	// no-hook and hooked loops alternate (hook removed and reinstalled
	// each round) so cache warmth and frequency scaling hit both equally;
	// each side keeps its best round.
	nh, gh := newRack()
	var hookHits uint64
	countHook := func(k fabric.OpKind, arg0, arg1 uint64) { hookHits++ }
	missPair := func(i int) { nh.InvalidateRange(gh, 8); nh.Load64(gh) }
	fenceOp := func(i int) { nh.Fence() }
	alternate := func(reps int, fn func(int)) (noHook, hooked float64) {
		for i := 0; i < reps/4; i++ { // warm up before either side is timed
			fn(i)
		}
		best := func(cur, d float64) float64 {
			if cur == 0 || d < cur {
				return d
			}
			return cur
		}
		for round := 0; round < 4; round++ {
			nh.SetOpHook(nil)
			start := time.Now()
			for i := 0; i < reps; i++ {
				fn(i)
			}
			noHook = best(noHook, float64(time.Since(start).Nanoseconds())/float64(reps))
			nh.SetOpHook(countHook)
			start = time.Now()
			for i := 0; i < reps; i++ {
				fn(i)
			}
			hooked = best(hooked, float64(time.Since(start).Nanoseconds())/float64(reps))
		}
		nh.SetOpHook(nil)
		return noHook, hooked
	}
	wMissNoHook, wMissHooked := alternate(cfg.MissReps, missPair)
	wFenceNoHook, wFenceHooked := alternate(cfg.AtomicReps, fenceOp)
	for attempt := 0; attempt < 2 && cfg.GateHookDispatch && wFenceHooked <= wFenceNoHook; attempt++ {
		wFenceNoHook, wFenceHooked = alternate(cfg.AtomicReps, fenceOp) // re-measure before failing
	}
	res.Ratios["miss hooked vs no-hook (wall)"] = wMissHooked / wMissNoHook
	res.Ratios["fence hooked vs no-hook (wall)"] = wFenceHooked / wFenceNoHook
	if cfg.GateHookDispatch && !(wFenceHooked > wFenceNoHook) {
		res.Fail("hook dispatch cost nothing: hooked fence %.1f ns/op vs no-hook %.1f ns/op", wFenceHooked, wFenceNoHook)
	}

	// ---- Table and bench artifact ----
	row := func(op string, v, w float64, notes string) {
		res.Table.AddRow(op, ns(v), ns(w), notes)
	}
	row("read-hit", vReadHit, wReadHit, "warm line, local")
	row("write-hit", vWriteHit, wWriteHit, "dirty warm line in place")
	row("read-miss", vReadMiss, wMissPair, "wall includes the invalidate that forces the miss")
	for _, lines := range fabricRangeSizes {
		row(fmt.Sprintf("wbr-%d", lines), vWBR[lines], wWBR[lines],
			"one ranged call; dirtying stores subtracted from wall")
		row(fmt.Sprintf("inv-%d", lines), vINV[lines], wINV[lines],
			"wall includes the re-fetch misses that re-populate the lines")
	}
	row("atomic-rmw", vAtomic, wAtomic, "fabric Add64, bypasses cache")
	row("fence", vFence, wFence, "")
	res.Table.AddRow("wbr-16-per-line", "", ns(wLegacy), "pinned legacy baseline for the speedup gate")
	res.Table.AddRow("miss-no-hook", "", ns(wMissNoHook), "hooked flag short-circuits event assembly")
	res.Table.AddRow("miss-hooked", "", ns(wMissHooked), "counting hook installed")
	res.Table.AddRow("fence-no-hook", "", ns(wFenceNoHook), "the hook-dispatch gate runs here")
	res.Table.AddRow("fence-hooked", "", ns(wFenceHooked),
		fmt.Sprintf("counting hook installed; %d events dispatched in total", hookHits))

	ops := []OpCost{
		{Op: "read-hit", VirtualNS: vReadHit},
		{Op: "write-hit", VirtualNS: vWriteHit},
		{Op: "read-miss", VirtualNS: vReadMiss},
	}
	for _, lines := range fabricRangeSizes {
		ops = append(ops,
			OpCost{Op: fmt.Sprintf("wbr-%d", lines), VirtualNS: vWBR[lines]},
			OpCost{Op: fmt.Sprintf("inv-%d", lines), VirtualNS: vINV[lines]})
	}
	ops = append(ops,
		OpCost{Op: "atomic-rmw", VirtualNS: vAtomic},
		OpCost{Op: "fence", VirtualNS: vFence})

	maxLines := fabricRangeSizes[len(fabricRangeSizes)-1]
	res.Bench = &Bench{
		Name:      "fabric",
		OpsPerSec: 1e9 / vReadHit,
		P50NS:     vReadHit,
		P99NS:     vWBR[maxLines],
		Ops:       ops,
	}
	return res
}
