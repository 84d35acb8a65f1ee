package faultbox

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/memsys"
)

type env struct {
	fab    *fabric.Fabric
	frames *memsys.GlobalFrames
	arena  *alloc.Arena
	mgr    *Manager
}

func newEnv(t *testing.T, nodes int) *env {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: nodes, Latency: fabric.DefaultLatency()})
	frames := memsys.NewGlobalFrames(f, 4096)
	arena := alloc.NewArena(f, 24<<20)
	return &env{fab: f, frames: frames, arena: arena,
		mgr: NewManager(f, frames, arena)}
}

// counterApp is a box application with logical state.
type counterApp struct{ v uint64 }

func (a *counterApp) Snapshot() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], a.v)
	return b[:]
}
func (a *counterApp) Restore(b []byte) { a.v = binary.LittleEndian.Uint64(b) }

func TestRedundancyPolicy(t *testing.T) {
	cases := map[int]Redundancy{-1: RedNone, 0: RedNone, 1: RedCheckpoint, 2: RedReplicate, 3: RedNModular, 9: RedNModular}
	for crit, want := range cases {
		if got := RedundancyFor(crit); got != want {
			t.Errorf("RedundancyFor(%d) = %v, want %v", crit, got, want)
		}
	}
}

func TestCreateWriteDestroy(t *testing.T) {
	e := newEnv(t, 2)
	b, err := e.mgr.Create("app1", e.fab.Node(0), Config{HeapPages: 4, StackPages: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.mgr.Boxes() != 1 {
		t.Fatalf("boxes = %d", e.mgr.Boxes())
	}
	if _, err := e.mgr.Create("app1", e.fab.Node(1), Config{HeapPages: 1, StackPages: 1}, nil); err == nil {
		t.Fatal("duplicate name should fail")
	}
	if err := b.MMU().Write(HeapVA, []byte("heap data")); err != nil {
		t.Fatal(err)
	}
	if err := b.MMU().Write(StackVA, []byte("stack data")); err != nil {
		t.Fatal(err)
	}
	b.Destroy()
	b.Destroy() // idempotent
	if e.mgr.Boxes() != 0 {
		t.Fatalf("boxes after destroy = %d", e.mgr.Boxes())
	}
}

func TestCheckpointRecoverOnOtherNodeAfterCrash(t *testing.T) {
	e := newEnv(t, 2)
	app := &counterApp{}
	b, err := e.mgr.Create("svc", e.fab.Node(0), Config{HeapPages: 8, StackPages: 2, Criticality: 1}, app)
	if err != nil {
		t.Fatal(err)
	}
	heap := bytes.Repeat([]byte{0xAB}, 3*memsys.PageSize)
	if err := b.MMU().Write(HeapVA, heap); err != nil {
		t.Fatal(err)
	}
	stack := []byte("return addresses and locals")
	if err := b.MMU().Write(StackVA+100, stack); err != nil {
		t.Fatal(err)
	}
	app.v = 1234
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint damage that recovery must roll back.
	b.MMU().Write(HeapVA, []byte("corrupted"))
	app.v = 9999

	e.fab.Node(0).Crash()

	app2 := &counterApp{}
	nb, err := b.RecoverOn(e.fab.Node(1), app2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	got := make([]byte, len(heap))
	if err := nb.MMU().Read(HeapVA, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, heap) {
		t.Fatal("heap not restored from checkpoint")
	}
	gotStack := make([]byte, len(stack))
	nb.MMU().Read(StackVA+100, gotStack)
	if !bytes.Equal(gotStack, stack) {
		t.Fatal("stack not restored")
	}
	if app2.v != 1234 {
		t.Fatalf("app state = %d, want 1234", app2.v)
	}
	if e.mgr.Boxes() != 1 {
		t.Fatalf("boxes = %d", e.mgr.Boxes())
	}
}

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	e := newEnv(t, 2)
	b, _ := e.mgr.Create("x", e.fab.Node(0), Config{HeapPages: 1, StackPages: 1}, nil)
	if _, err := b.RecoverOn(e.fab.Node(1), nil); err == nil {
		t.Fatal("recovery without checkpoint should fail")
	}
}

func TestQuiesceUnderReplicatePolicy(t *testing.T) {
	e := newEnv(t, 2)
	app := &counterApp{}
	b, _ := e.mgr.Create("crit", e.fab.Node(0), Config{HeapPages: 2, StackPages: 1, Criticality: 2}, app)
	if b.Redundancy() != RedReplicate {
		t.Fatalf("redundancy = %v", b.Redundancy())
	}
	b.MMU().Write(HeapVA, []byte("v1"))
	app.v = 1
	if err := b.Quiesce(); err != nil { // RedReplicate: immediate checkpoint
		t.Fatal(err)
	}
	e.fab.Node(0).Crash()
	app2 := &counterApp{}
	nb, err := b.RecoverOn(e.fab.Node(1), app2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	nb.MMU().Read(HeapVA, buf)
	if string(buf) != "v1" || app2.v != 1 {
		t.Fatalf("recovered %q / %d", buf, app2.v)
	}
}

func TestFaultIsolationBetweenBoxes(t *testing.T) {
	// A fault destroying one box must leave the other's memory intact.
	e := newEnv(t, 2)
	b1, _ := e.mgr.Create("victim", e.fab.Node(0), Config{HeapPages: 4, StackPages: 1}, nil)
	b2, _ := e.mgr.Create("bystander", e.fab.Node(1), Config{HeapPages: 4, StackPages: 1}, nil)
	payload := bytes.Repeat([]byte{0x5F}, memsys.PageSize)
	b2.MMU().Write(HeapVA, payload)

	b1.MMU().Write(HeapVA, bytes.Repeat([]byte{0xEE}, memsys.PageSize))
	b1.Destroy()

	got := make([]byte, memsys.PageSize)
	b2.MMU().Read(HeapVA, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("destroying one box disturbed another")
	}
	if e.mgr.Boxes() != 1 {
		t.Fatalf("boxes = %d", e.mgr.Boxes())
	}
}

func TestNModularVoting(t *testing.T) {
	e := newEnv(t, 3)
	nodes := []*fabric.Node{e.fab.Node(0), e.fab.Node(1), e.fab.Node(2)}

	out, err := NModularCall(nodes, func(n *fabric.Node) []byte {
		return []byte("agreed")
	})
	if err != nil || string(out) != "agreed" {
		t.Fatalf("unanimous = %q, %v", out, err)
	}
	// One corrupt replica is outvoted.
	out, err = NModularCall(nodes, func(n *fabric.Node) []byte {
		if n.ID() == 1 {
			return []byte("corrupt")
		}
		return []byte("majority")
	})
	if err != nil || string(out) != "majority" {
		t.Fatalf("outvote = %q, %v", out, err)
	}
	// Total disagreement has no majority.
	if _, err := NModularCall(nodes, func(n *fabric.Node) []byte {
		return []byte{byte(n.ID())}
	}); err == nil {
		t.Fatal("no-majority should fail")
	}
	if _, err := NModularCall(nodes[:1], func(n *fabric.Node) []byte { return nil }); err == nil {
		t.Fatal("single replica should be rejected")
	}
}

func TestHorizontalRecoveryScansEverything(t *testing.T) {
	e := newEnv(t, 2)
	app := &counterApp{v: 5}
	faulty, _ := e.mgr.Create("faulty", e.fab.Node(0), Config{HeapPages: 2, StackPages: 1, Criticality: 1}, app)
	for i := 0; i < 3; i++ {
		b, _ := e.mgr.Create(string(rune('a'+i)), e.fab.Node(1), Config{HeapPages: 4, StackPages: 1}, nil)
		b.MMU().Write(HeapVA, bytes.Repeat([]byte{byte(i)}, 4*memsys.PageSize))
	}
	faulty.MMU().Write(HeapVA, []byte("important"))
	faulty.Checkpoint()
	e.fab.Node(0).Crash()

	target := e.fab.Node(1)
	before := target.VirtualNS()
	nb, err := HorizontalRecovery(e.mgr, faulty, target)
	if err != nil {
		t.Fatal(err)
	}
	horizCost := target.VirtualNS() - before
	buf := make([]byte, 9)
	nb.MMU().Read(HeapVA, buf)
	if string(buf) != "important" {
		t.Fatalf("recovered %q", buf)
	}
	if horizCost == 0 {
		t.Fatal("horizontal recovery charged nothing")
	}
}
