package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"flacos/internal/core"
	"flacos/internal/fabric"
	"flacos/internal/sched"
	"flacos/internal/trace"
)

// TraceConfig parameterizes the flight-recorder overhead experiment.
type TraceConfig struct {
	// EmitEvents is how many events the raw-emission phase writes.
	EmitEvents int
	// Tasks is the dispatch-overhead phase's task count (serial
	// submit→wait, so every task crosses the traced hot path).
	Tasks int
	// FSOps is the end-to-end smoke phase's file-op count.
	FSOps int
}

// DefaultTrace sizes the experiment so the per-event cost and the
// dispatch overhead both come from thousands of samples.
func DefaultTrace() TraceConfig { return TraceConfig{EmitEvents: 100_000, Tasks: 400, FSOps: 200} }

// QuickTrace is the CI-sized run; the per-event cost is deterministic
// at any size.
func QuickTrace() TraceConfig { return TraceConfig{EmitEvents: 20_000, Tasks: 150, FSOps: 80} }

const (
	// traceNodes sizes the raw-emission rack.
	traceNodes = 3
	// traceRingCap sizes per-node rings in the dispatch and smoke phases
	// (the recorder's default).
	traceRingCap = 1 << 15
)

// traceOverheadBudgetPct is the acceptance bound: tracing the scheduler's
// dispatch hot path must cost under this much extra virtual time per task.
const traceOverheadBudgetPct = 15.0

// Trace measures the flight recorder's always-on overhead claim in three
// phases:
//
//   - raw emission: one writer streaming events as fast as it can — wall
//     events/sec and the modeled virtual cost per event (one full-line
//     cached write plus one explicit write-back);
//   - dispatch overhead: the same serial submit→wait task stream with
//     tracing off then on, comparing the worker node's virtual time per
//     task. The traced run must stay within traceOverheadBudgetPct and
//     drop zero events at the default ring size;
//   - rack smoke: a booted rack (core.Boot + EnableTrace) running
//     scheduler tasks and file ops, whose merged snapshot must contain
//     both subsystems' events, drop nothing, and render parseable
//     Chrome trace JSON.
func Trace(cfg TraceConfig) *Result {
	res := newResult("Flight recorder: always-on tracing overhead",
		"phase", "metric", "value", "notes")

	// ---- Phase A: raw emission throughput and per-event cost ----
	{
		f := fabric.New(fabric.Config{
			GlobalSize: 256 << 20, Nodes: traceNodes,
			CacheCapacityLines: -1, Latency: fabric.DefaultLatency(),
		})
		ringCap := uint64(1)
		for ringCap < uint64(cfg.EmitEvents) {
			ringCap <<= 1
		}
		rec := trace.New(f, trace.Config{RingCap: ringCap})
		w := rec.Writer(0)
		before := f.Node(0).Stats()
		start := time.Now()
		for i := 0; i < cfg.EmitEvents; i++ {
			w.Emit(trace.SubApp, trace.KMark, 0, uint64(i), 0)
		}
		wall := time.Since(start)
		d := f.Node(0).Stats().Delta(before)
		perEvent := float64(d.VirtualNS) / float64(cfg.EmitEvents)
		rate := float64(cfg.EmitEvents) / wall.Seconds()
		snap := rec.Collector().Snapshot(f.Node(0), false)
		res.Table.AddRow("emit", "throughput", fmt.Sprintf("%.2gM ev/s", rate/1e6), "wall clock, one writer")
		res.Table.AddRow("emit", "virtual cost", ns(perEvent)+"/event", "full-line write + write-back")
		res.Table.AddRow("emit", "dropped", fmt.Sprintf("%d", snap.TotalDropped()),
			fmt.Sprintf("ring=%d slots", ringCap))
		if d := snap.TotalDropped(); d != 0 {
			res.Fail("raw emission dropped %d events from a ring sized for all of them", d)
		}
		if got := len(snap.Nodes[0].Events); got != cfg.EmitEvents {
			res.Fail("raw emission lost events: %d/%d recovered", got, cfg.EmitEvents)
		}
	}

	// ---- Phase B: scheduler dispatch hot path, traced vs untraced ----
	runDispatch := func(traced bool) (perTaskNS float64, dropped uint64) {
		f := fabric.New(fabric.Config{
			GlobalSize: 64 << 20, Nodes: 2,
			CacheCapacityLines: -1, Latency: fabric.DefaultLatency(),
		})
		s := sched.New(f, sched.Config{
			Policy: sched.PolicyLocality, WorkersPerNode: 1,
			// Long ticks: between tasks the worker parks on its doorbell,
			// so idle scans don't pollute the per-task virtual cost.
			ReclaimTick: 50 * time.Millisecond,
			IdleTick:    50 * time.Millisecond,
			Seed:        1,
		})
		defer s.Stop()
		var rec *trace.Recorder
		if traced {
			rec = trace.New(f, trace.Config{RingCap: traceRingCap})
			s.SetTrace(rec)
		}
		fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
			n.Load64(fabric.GPtr(arg0))
		})
		s.Start()
		n0 := f.Node(0)
		cell := f.Reserve(fabric.LineSize, fabric.LineSize)
		// Warm-up (worker goroutines scheduled, paths warm), then measure.
		for j := 0; j < 8; j++ {
			s.Wait(n0, s.Submit(n0, sched.Task{Fn: fn, Arg0: uint64(cell), Preferred: 1}))
		}
		before := f.Node(1).Stats()
		for j := 0; j < cfg.Tasks; j++ {
			s.Wait(n0, s.Submit(n0, sched.Task{Fn: fn, Arg0: uint64(cell), Preferred: 1}))
		}
		d := f.Node(1).Stats().Delta(before)
		if rec != nil {
			dropped = rec.Collector().Snapshot(n0, false).TotalDropped()
		}
		return float64(d.VirtualNS) / float64(cfg.Tasks), dropped
	}
	plainNS, _ := runDispatch(false)
	tracedNS, dropped := runDispatch(true)
	overheadPct := 100 * (tracedNS - plainNS) / plainNS
	res.Table.AddRow("dispatch", "untraced", ns(plainNS)+"/task", "worker-node virtual time")
	res.Table.AddRow("dispatch", "traced", ns(tracedNS)+"/task",
		fmt.Sprintf("+%.1f%% (budget %.0f%%), dropped=%d", overheadPct, traceOverheadBudgetPct, dropped))
	res.Ratios["traced/untraced dispatch cost"] = tracedNS / plainNS
	if overheadPct > traceOverheadBudgetPct {
		res.Fail("traced dispatch costs +%.1f%% virtual time per task, budget %.0f%%", overheadPct, traceOverheadBudgetPct)
	}
	if dropped != 0 {
		res.Fail("traced dispatch dropped %d events at the default ring size", dropped)
	}

	// ---- Phase C: booted-rack smoke (sched + fs, merged snapshot) ----
	{
		rack := core.Boot(core.Config{Nodes: 2})
		rec := rack.EnableTrace(trace.Config{RingCap: traceRingCap})
		s := rack.Scheduler()
		fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
			n.Load64(fabric.GPtr(rack.HWTable))
		})
		n0 := rack.Fabric.Node(0)
		for j := 0; j < cfg.FSOps; j++ {
			s.Submit(n0, sched.Task{Fn: fn, Preferred: j % 2})
		}
		m := rack.OS(0).Mount
		page := make([]byte, 4096)
		for j := 0; j < cfg.FSOps; j++ {
			id, err := m.Create(fmt.Sprintf("trace-smoke-%d", j))
			if err != nil {
				panic(err)
			}
			if _, err := m.Write(id, 0, page); err != nil {
				panic(err)
			}
		}
		if !s.Drain(n0) {
			panic("trace experiment: smoke drain aborted")
		}
		rack.Shutdown()
		snap := rec.Collector().Snapshot(n0, false)
		bySub := map[trace.Subsys]int{}
		for _, e := range snap.Events {
			bySub[e.Sub]++
		}
		cj := snap.ChromeJSON()
		verdict := "ok"
		if snap.TotalDropped() != 0 || snap.TotalSkipped() != 0 ||
			bySub[trace.SubSched] == 0 || bySub[trace.SubFS] == 0 || !json.Valid(cj) {
			verdict = "FAIL"
			res.Fail("rack smoke snapshot is incomplete: sched=%d fs=%d events, dropped=%d skipped=%d, json valid=%v",
				bySub[trace.SubSched], bySub[trace.SubFS], snap.TotalDropped(), snap.TotalSkipped(), json.Valid(cj))
		}
		res.Table.AddRow("smoke", "rack events", fmt.Sprintf("%d merged", snap.Count()),
			fmt.Sprintf("sched=%d fs=%d dropped=%d json=%dB %s",
				bySub[trace.SubSched], bySub[trace.SubFS], snap.TotalDropped(), len(cj), verdict))
	}
	return res
}
