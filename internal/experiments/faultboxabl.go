package experiments

import (
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/faultbox"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/memsys"
)

// FaultBoxConfig parameterizes ablation C.
type FaultBoxConfig struct {
	AppCounts []int // total applications on the rack
}

// faultBoxPagesEach is every application's heap, in pages.
const faultBoxPagesEach uint64 = 16

// DefaultFaultBox sweeps system density.
func DefaultFaultBox() FaultBoxConfig {
	return FaultBoxConfig{AppCounts: []int{2, 8, 32}}
}

// QuickFaultBox is the CI-sized sweep.
func QuickFaultBox() FaultBoxConfig {
	return FaultBoxConfig{AppCounts: []int{2, 8}}
}

// FaultBoxAblation quantifies §3.6's claim: vertical fault boxes keep
// recovery cost proportional to the FAULTY application's state, while the
// horizontal (per-subsystem) model scans every application's state in
// every subsystem, so its cost grows with total system density.
func FaultBoxAblation(cfg FaultBoxConfig) *Result {
	res := newResult("Ablation C: vertical fault box vs horizontal per-subsystem recovery",
		"apps", "vertical recovery", "horizontal recovery", "horizontal/vertical")
	for _, apps := range cfg.AppCounts {
		vert := runFaultBoxRecovery(apps, false)
		horiz := runFaultBoxRecovery(apps, true)
		ratio := horiz / vert
		res.Table.AddRow(fmt.Sprintf("%d", apps), ns(vert), ns(horiz), fmt.Sprintf("%.2fx", ratio))
		res.Ratios[fmt.Sprintf("horizontal/vertical %d apps", apps)] = ratio
	}
	return res
}

// runFaultBoxRecovery stands up `apps` boxes, crashes the first one's host
// node, and measures the target node's virtual time to recover it.
func runFaultBoxRecovery(apps int, horizontal bool) float64 {
	// Size the rack to the workload: pages, double-buffered checkpoints,
	// and arena headroom.
	boxBytes := (faultBoxPagesEach + 8) * (memsys.PageSize + 64)
	global := fabric.AlignUp64(uint64(apps)*boxBytes*6+(48<<20), 1<<20)
	f := fabric.New(fabric.Config{
		GlobalSize: global,
		Nodes:      2,
		Latency:    fabric.DefaultLatency(),
	})
	frames := memsys.NewGlobalFrames(f, (faultBoxPagesEach+8)*uint64(apps)*4)
	arena := alloc.NewArena(f, 24<<20)
	mgr := faultbox.NewManager(f, frames, arena)

	page := make([]byte, memsys.PageSize)
	var victim *faultbox.Box
	for i := 0; i < apps; i++ {
		// The victim runs on node 0 (which will crash); bystanders on node 1.
		host := f.Node(1)
		if i == 0 {
			host = f.Node(0)
		}
		b, err := mgr.Create(fmt.Sprintf("app-%d", i), host, faultbox.Config{
			HeapPages: faultBoxPagesEach, StackPages: 2, Criticality: 1,
		}, nil)
		if err != nil {
			panic(err)
		}
		for p := uint64(0); p < faultBoxPagesEach; p++ {
			for j := range page {
				page[j] = byte(i + int(p))
			}
			b.MMU().Write(faultbox.HeapVA+p*memsys.PageSize, page)
		}
		b.Checkpoint()
		if i == 0 {
			victim = b
		}
	}
	f.Node(0).Crash()

	target := f.Node(1)
	before := target.VirtualNS()
	var err error
	if horizontal {
		_, err = faultbox.HorizontalRecovery(mgr, victim, target)
	} else {
		_, err = victim.RecoverOn(target, nil)
	}
	if err != nil {
		panic(err)
	}
	return float64(target.VirtualNS() - before)
}
