package health

import (
	"slices"
	"sync/atomic"
	"testing"

	"flacos/internal/membership"
)

// TestPlaneOneDeadSweepAndRejoin runs the control plane end to end on a
// real fabric with scripted gates: a crash is swept exactly once although
// every live member delivers the death, the restarted node's rejoin
// reopens its serving gate, and the controller never rejoins node 0,
// whose loop it runs on.
func TestPlaneOneDeadSweepAndRejoin(t *testing.T) {
	f := testFabric(3)
	g := &fakeGates{}
	var stages stageCounts
	p := NewPlane(membership.New(f, fastMemCfg()), ControllerConfig{
		Sched:   g,
		Store:   g,
		OnStage: stages.hook(nil),
	}, nil, nil)
	t.Cleanup(p.Stop)
	for id := 0; id < 3; id++ {
		if err := p.Join(id, nil); err != nil {
			t.Fatalf("boot join node %d: %v", id, err)
		}
	}
	// Both survivors deliver node 2's death. Member 1's delivery is fed to
	// the controller as well, as a second subscriber on the stream would:
	// the sweep must still run once.
	var delivered [2]atomic.Int32
	for id := 0; id < 2; id++ {
		p.Member(id).Subscribe(func(ev membership.Event) {
			if ev.Kind == membership.EvDead && ev.Node == 2 {
				if id == 1 {
					p.ctl.OnEvent(ev)
				}
				delivered[id].Add(1) // after every handler of ev returned
			}
		})
	}
	waitFor(t, "boot population alive", func() bool {
		return p.table.Alive(0) && p.table.Alive(1) && p.table.Alive(2)
	})
	gen := p.Member(2).Generation()

	f.Node(2).Crash()
	waitFor(t, "both survivors deliver node 2's death", func() bool {
		return delivered[0].Load() > 0 && delivered[1].Load() > 0 && stages[StageDead].Load() > 0
	})
	if n := stages[StageDead].Load(); n != 1 {
		t.Fatalf("%d death sweeps, want exactly 1", n)
	}
	if n := countEntry(g.Log(), "reclaim(2)"); n != 1 {
		t.Fatalf("lease reclaim ran %d times, want 1 (log %v)", n, g.Log())
	}
	if !slices.Contains(g.Log(), "serving(2,false)") {
		t.Fatalf("death sweep left node 2 serving: %v", g.Log())
	}

	f.Node(2).Restart()
	if err := p.Join(2, nil); err != nil {
		t.Fatalf("rejoin node 2: %v", err)
	}
	if got := p.Member(2).Generation(); got <= gen {
		t.Fatalf("rejoin generation %d, want above %d", got, gen)
	}
	waitFor(t, "the rejoin's EvJoin reopens node 2", func() bool {
		return slices.Contains(g.Log(), "serving(2,true)")
	})

	if err := p.ctl.cfg.Rejoin(0, p.Member(0).Generation()); err == nil {
		t.Fatal("a controller-driven rejoin of node 0 succeeded")
	}
}

func countEntry(log []string, entry string) int {
	n := 0
	for _, s := range log {
		if s == entry {
			n++
		}
	}
	return n
}
