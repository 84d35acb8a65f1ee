package serverless

import (
	"testing"

	"flacos/internal/fabric"
)

func TestInterferenceCostModel(t *testing.T) {
	im := InterferenceModel{ExecNS: 1000, PenaltyFrac: 0.5}
	cases := map[int]int{0: 1000, 1: 1000, 2: 1500, 5: 3000}
	for density, want := range cases {
		if got := im.CostOn(density); got != want {
			t.Errorf("CostOn(%d) = %d, want %d", density, got, want)
		}
	}
	d := DefaultInterference()
	if d.CostOn(2) <= d.CostOn(1) {
		t.Fatal("default model has no interference")
	}
}

func TestScaleUpOnExplicitPlacement(t *testing.T) {
	env := newTestEnv(t, 2)
	ctl := NewController(env.runtimes, env.services)
	ctl.Deploy("f", "pytorch", func(n *fabric.Node, req []byte) []byte { return req })

	if _, err := ctl.ScaleUpOn("f", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.ScaleUpOn("f", 1); err != nil { // idempotent per node
		t.Fatal(err)
	}
	density := ctl.Density()
	if density[0] != 0 || density[1] != 1 {
		t.Fatalf("density = %v, want [0 1]", density)
	}
	if _, err := ctl.ScaleUpOn("f", 9); err == nil {
		t.Fatal("bad node should fail")
	}
	if _, err := ctl.ScaleUpOn("ghost", 0); err == nil {
		t.Fatal("unknown function should fail")
	}
}

func TestInvokeOnRoutesToLeastLoadedInstance(t *testing.T) {
	env := newTestEnv(t, 2)
	ctl := NewController(env.runtimes, env.services)
	// Pack node 0 with fillers; target has instances on both nodes.
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		ctl.Deploy(name, "pytorch", func(n *fabric.Node, req []byte) []byte { return nil })
		if _, err := ctl.ScaleUpOn(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Deploy("target", "pytorch", func(n *fabric.Node, req []byte) []byte { return req })
	ctl.ScaleUpOn("target", 0)
	ctl.ScaleUpOn("target", 1)

	im := DefaultInterference()
	out, host, err := ctl.InvokeOn(env.fab.Node(0), "target", []byte("x"), im)
	if err != nil || string(out) != "x" {
		t.Fatalf("invoke = %q, %v", out, err)
	}
	if host != 1 {
		t.Fatalf("routed to node %d, want idle node 1", host)
	}
	// Pinned to the hot node costs more virtual time.
	caller := env.fab.Node(1)
	before := caller.VirtualNS()
	if _, err := ctl.InvokePinned(caller, "target", []byte("x"), im); err != nil {
		t.Fatal(err)
	}
	pinned := caller.VirtualNS() - before
	before = caller.VirtualNS()
	if _, _, err := ctl.InvokeOn(caller, "target", []byte("x"), im); err != nil {
		t.Fatal(err)
	}
	routed := caller.VirtualNS() - before
	if pinned <= routed {
		t.Fatalf("pinned (%d ns) should cost more than routed (%d ns)", pinned, routed)
	}
	// Error paths.
	if _, _, err := ctl.InvokeOn(caller, "ghost", nil, im); err == nil {
		t.Fatal("unknown function should fail")
	}
	if _, err := ctl.InvokePinned(caller, "ghost", nil, im); err == nil {
		t.Fatal("unknown function should fail")
	}
}
