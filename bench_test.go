package flacos_test

// One benchmark per table/figure of the paper plus one per ablation, each
// running the same row of experiments.Table that `flacbench -quick` runs.
// The interesting output is the custom metrics (the experiment's headline
// ratios reported via b.ReportMetric), which are deterministic; wall-clock
// ns/op only reflects how fast the host simulates.
//
// Run: go test -bench=. -benchmem .

import (
	"strings"
	"testing"

	"flacos/internal/experiments"
)

// benchRow runs the named experiment at CI scale b.N times and reports
// its headline ratios.
func benchRow(b *testing.B, name string) {
	b.Helper()
	for _, e := range experiments.Table {
		if e.Name != name {
			continue
		}
		var res *experiments.Result
		for i := 0; i < b.N; i++ {
			res = e.Run(true)
		}
		for k, v := range res.Ratios {
			b.ReportMetric(v, "x:"+strings.ReplaceAll(k, " ", "_"))
		}
		if res.Failed() {
			b.Errorf("failed gates:\n%s", res)
		}
		return
	}
	b.Fatalf("no experiment named %q", name)
}

// BenchmarkFig4RedisLatency regenerates Figure 4: Redis SET/GET latency
// over FlacOS IPC vs the TCP/IP baseline at 64 B and 4 KiB values.
func BenchmarkFig4RedisLatency(b *testing.B) { benchRow(b, "fig4") }

// BenchmarkContainerStartup regenerates the §4.2 container-startup
// experiment (cold vs FlacOS shared page cache vs hot), at 1/64 of the
// paper's image scale so each iteration stays seconds-long; the reported
// speedup ratios are scale-invariant (the registry bandwidth scales with
// the image).
func BenchmarkContainerStartup(b *testing.B) { benchRow(b, "container") }

// BenchmarkSyncPrimitives regenerates ablation A: lock-based vs FlacDK
// synchronization on the non-coherent fabric.
func BenchmarkSyncPrimitives(b *testing.B) { benchRow(b, "sync") }

// BenchmarkPageCacheSharing regenerates ablation B: shared vs per-node
// page caches (rack memory use and device traffic).
func BenchmarkPageCacheSharing(b *testing.B) { benchRow(b, "pagecache") }

// BenchmarkFaultBoxRecovery regenerates ablation C: vertical fault-box
// recovery vs horizontal per-subsystem recovery.
func BenchmarkFaultBoxRecovery(b *testing.B) { benchRow(b, "faultbox") }

// BenchmarkIPCTransports regenerates ablation D: echo round trips over
// TCP, RDMA, FlacOS IPC, and migration RPC.
func BenchmarkIPCTransports(b *testing.B) { benchRow(b, "ipc") }

// BenchmarkPageDedup regenerates ablation E: content-based deduplication
// over global memory.
func BenchmarkPageDedup(b *testing.B) { benchRow(b, "dedup") }

// BenchmarkDensityRouting regenerates ablation F: density-aware invocation
// routing vs pinned placement under container interference.
func BenchmarkDensityRouting(b *testing.B) { benchRow(b, "density") }

// BenchmarkSchedPlacement regenerates ablation G: locality-aware vs
// random task placement over the global run queue, plus crash
// re-dispatch through lease expiry.
func BenchmarkSchedPlacement(b *testing.B) { benchRow(b, "sched") }
