// Package integration_test exercises cross-subsystem scenarios end to end
// through the public core facade: the availability, elasticity and
// reliability flows the paper's Figure 3 serverless architecture promises.
package integration_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"flacos/internal/core"
	"flacos/internal/fabric"
	"flacos/internal/faultbox"
	"flacos/internal/flacdk/reliability"
	"flacos/internal/ipc"
	"flacos/internal/sched"
	"flacos/internal/serverless"
)

func boot(t *testing.T, nodes int) *core.Rack {
	t.Helper()
	return core.Boot(core.Config{Nodes: nodes, GlobalMemory: 192 << 20, FaultSeed: 7})
}

// TestServiceSurvivesNodeCrash is the availability flow: a stateful
// service in a fault box keeps serving (with its state) after its host
// node dies — recovery onto a survivor plus the shared code context make
// the failover invisible to callers.
func TestServiceSurvivesNodeCrash(t *testing.T) {
	rack := boot(t, 2)

	// The service's counter lives in its box heap so it is part of the
	// vertical snapshot.
	type counterApp struct{ v uint64 }
	app := &counterApp{}
	_ = app

	box, err := rack.Boxes.Create("svc", rack.Fabric.Node(0), faultbox.Config{
		HeapPages: 2, StackPages: 1, Criticality: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	makeHandler := func(b *faultbox.Box) ipc.Handler {
		return func(caller *fabric.Node, req []byte) []byte {
			var cur [8]byte
			b.MMU().Read(faultbox.HeapVA, cur[:])
			v := binary.LittleEndian.Uint64(cur[:]) + 1
			binary.LittleEndian.PutUint64(cur[:], v)
			b.MMU().Write(faultbox.HeapVA, cur[:])
			return cur[:]
		}
	}
	rack.Services.Register("count", makeHandler(box))

	// Serve some traffic from both nodes.
	for i := 0; i < 5; i++ {
		if _, err := rack.Services.Call(rack.Fabric.Node(i%2), "count", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := box.Quiesce(); err != nil { // criticality 2 => eager checkpoint
		t.Fatal(err)
	}

	rack.Fabric.Node(0).Crash()

	nb, err := box.RecoverOn(rack.Fabric.Node(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	rack.Services.Register("count", makeHandler(nb)) // rebind to the new box
	resp, err := rack.Services.Call(rack.Fabric.Node(1), "count", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(resp); got != 6 {
		t.Fatalf("counter after failover = %d, want 6 (state survived)", got)
	}
}

// TestFSJournalRecoveryUnderLoad crashes a node mid-workload and verifies
// the surviving node recovers the full namespace from the journal (the
// metadata replication log) and that file DATA (in the crash-surviving
// shared page cache) matches.
func TestFSJournalRecoveryUnderLoad(t *testing.T) {
	rack := boot(t, 2)
	m0 := rack.OS(0).Mount

	content := map[string][]byte{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("/data/f%02d", i)
		id, err := m0.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(i + 1)}, 1000+i*37)
		m0.Write(id, 0, data)
		content[name] = data
	}

	rack.Fabric.Node(0).Crash()

	// The survivor's own mount replays the journal on demand.
	m1 := rack.OS(1).Mount
	for name, want := range content {
		id, ok := m1.Lookup(name)
		if !ok {
			t.Fatalf("lost %s", name)
		}
		got := make([]byte, len(want))
		if n, err := m1.Read(id, 0, got); err != nil || n != len(want) {
			t.Fatalf("read %s: %d,%v", name, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s content diverged after crash", name)
		}
	}
}

// TestScrubRepairUnderCorruptionStorm injects a steady corruption rate
// while a workload writes protected regions; every corruption the scrubber
// finds is repaired from a good copy, converging to a clean system.
func TestScrubRepairUnderCorruptionStorm(t *testing.T) {
	rack := boot(t, 1)
	n := rack.Fabric.Node(0)
	const regions = 8
	good := make([][]byte, regions)
	regs := make([]reliability.Region, regions)
	for i := range regs {
		g := rack.Fabric.Reserve(256, 64)
		good[i] = bytes.Repeat([]byte{byte(i + 1)}, 256)
		n.Write(g, good[i])
		n.FlushRange(g, 256)
		regs[i] = reliability.Region{G: g, Size: 256}
		rack.Scrubber.Protect(regs[i])
	}
	// Storm: flip bits in random regions (deterministic seed).
	detected := 0
	for round := 0; round < 10; round++ {
		rack.Fabric.Faults().FlipBitAtHome(rack.Fabric, regs[round%regions].G.Add(uint64(round)*8%256), uint(round%64))
		for _, bad := range rack.Scrubber.ScrubOnce() {
			detected++
			for i := range regs {
				if regs[i] == bad {
					rack.Scrubber.Repair(bad, good[i])
				}
			}
		}
	}
	if bad := rack.Scrubber.ScrubOnce(); len(bad) != 0 {
		t.Fatalf("%d regions still corrupt after repair loop", len(bad))
	}
	if detected == 0 {
		t.Fatal("storm detected nothing")
	}
}

// TestElasticScaleOutUnderInvocationLoad drives a function from both nodes
// while the controller scales it out; every invocation must succeed and
// the second instance must come from the shared page cache, not the
// registry.
func TestElasticScaleOutUnderInvocationLoad(t *testing.T) {
	rack := boot(t, 2)
	reg := serverless.NewRegistry(2_000_000, 0.05)
	reg.Push(serverless.SyntheticImage("app", 4, 8<<20))
	cfg := serverless.DefaultRuntimeConfig()
	cfg.InitNS = 5_000_000
	ctl := rack.Serverless(reg, cfg)

	if _, err := ctl.Deploy("work", "app", func(n *fabric.Node, req []byte) []byte {
		return append(req, byte(n.ID()))
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := ctl.Invoke(rack.Fabric.Node(w), "work", []byte{1}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rep, err := ctl.ScaleUp("work")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Source == serverless.SourceRegistry {
		t.Fatal("scale-out went to the registry despite a warm shared cache")
	}
}

// TestCrashDuringIPCDoesNotWedgePeers ensures a node crash leaves other
// nodes' IPC operational (connection slots and the registry are unaffected
// state in global memory).
func TestCrashDuringIPCDoesNotWedgePeers(t *testing.T) {
	rack := boot(t, 3)
	l, err := rack.OS(1).Endpoint.Bind("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c := l.Accept()
			go func(c *ipc.Conn) {
				buf := make([]byte, 64)
				for {
					n, err := c.Recv(buf)
					if err != nil {
						return
					}
					c.Send(buf[:n])
				}
			}(c)
		}
	}()
	// Node 0 dies; node 2 can still talk to node 1's service.
	rack.Fabric.Node(0).Crash()
	c, err := rack.OS(2).Endpoint.Connect("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send([]byte("still alive"))
	buf := make([]byte, 64)
	n, err := c.Recv(buf)
	if err != nil || string(buf[:n]) != "still alive" {
		t.Fatalf("echo after crash = %q, %v", buf[:n], err)
	}
}

// TestScheduledWorkSurvivesNodeCrash is the coordinated-scheduling flow:
// tasks dispatched rack-wide through core.Rack's scheduler keep their
// exactly-once completion guarantee when a node dies mid-run — the
// survivors' lease keepers reclaim the dead node's in-flight tasks from
// the global run queue and re-dispatch them.
func TestScheduledWorkSurvivesNodeCrash(t *testing.T) {
	rack := boot(t, 3)
	defer rack.Shutdown()
	s := rack.Scheduler()

	const tasks = 30
	cells := rack.Fabric.Reserve(tasks*8, fabric.LineSize)
	started := rack.Fabric.Reserve(8*3, fabric.LineSize)
	// Node 1's tasks hold their leases until the test has crashed the
	// node, so the crash always lands inside a leased task: polling for a
	// started task and then crashing could find node 1 between tasks on a
	// loaded host, with no lease to reclaim.
	leased, crashed := make(chan struct{}, 1), make(chan struct{})
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(started).Add(uint64(n.ID())*8), 1)
		if n.ID() == 1 {
			select {
			case leased <- struct{}{}:
			default:
			}
			<-crashed
		}
		time.Sleep(300 * time.Microsecond)
		n.Load64(fabric.GPtr(arg0)) // a crashed node's worker dies here
	})

	n0 := rack.Fabric.Node(0)
	for i := uint64(0); i < tasks; i++ {
		s.Submit(n0, sched.Task{
			Fn: fn, Arg0: uint64(cells),
			Preferred: 1, DoneCell: cells.Add(i * 8),
		})
	}
	// Let node 1 take work in, then kill it mid-run.
	<-leased
	rack.Fabric.Node(1).Crash()
	close(crashed)

	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	st := s.StatsFrom(n0)
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d after the crash", st.Completed, tasks)
	}
	for i := uint64(0); i < tasks; i++ {
		if c := n0.AtomicLoad64(cells.Add(i * 8)); c != 1 {
			t.Fatalf("task %d completed %d times, want exactly once", i, c)
		}
	}
	if st.Reclaimed == 0 {
		t.Fatal("no lease was reclaimed: the crash recovery path never ran")
	}
	// The survivors did the work; the dead node can't have finished more
	// than it started.
	if n0.AtomicLoad64(started.Add(8)) >= tasks {
		t.Fatal("crashed node executed everything; crash came too late to test recovery")
	}
}

// TestSchedulerPlacesServerlessContainers covers the control-plane
// rerouting: serverless placement flows through the rack scheduler's
// load board, so container scale-up avoids crashed nodes entirely.
func TestSchedulerPlacesServerlessContainers(t *testing.T) {
	rack := boot(t, 3)
	defer rack.Shutdown()

	reg := serverless.NewRegistry(1_000_000, 1.0)
	reg.Push(serverless.SyntheticImage("app", 2, 1<<20))
	ctl := rack.Serverless(reg, serverless.DefaultRuntimeConfig())
	if _, err := ctl.Deploy("fn", "app", func(caller *fabric.Node, req []byte) []byte { return req }); err != nil {
		t.Fatal(err)
	}

	rack.Fabric.Node(0).Crash()
	for i := 0; i < 4; i++ {
		if _, err := ctl.ScaleUp("fn"); err != nil {
			t.Fatal(err)
		}
	}
	density := ctl.Density()
	if density[0] != 0 {
		t.Fatalf("scale-up placed %d instances on the crashed node 0 (density %v)", density[0], density)
	}
	if density[1]+density[2] == 0 {
		t.Fatalf("no instances placed anywhere: density %v", density)
	}
}
