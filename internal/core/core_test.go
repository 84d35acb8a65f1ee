package core

import (
	"bytes"
	"sync"
	"testing"

	"flacos/internal/boot"
	"flacos/internal/fabric"
	"flacos/internal/faultbox"
	"flacos/internal/memsys"
	"flacos/internal/redis"
	"flacos/internal/serverless"
	"flacos/internal/trace"
)

func TestBootDefaults(t *testing.T) {
	r := Boot(Config{GlobalMemory: 160 << 20})
	if r.Nodes() != 2 {
		t.Fatalf("nodes = %d", r.Nodes())
	}
	if r.Fabric.Size() < 160<<20 {
		t.Fatalf("global memory = %d", r.Fabric.Size())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("OS out of range should panic")
			}
		}()
		r.OS(5)
	}()
}

func TestFileSharedAcrossInstances(t *testing.T) {
	r := Boot(Config{Nodes: 2, GlobalMemory: 160 << 20})
	a, b := r.OS(0), r.OS(1)
	id, err := a.Mount.Create("/shared/cfg")
	if err != nil {
		t.Fatal(err)
	}
	a.Mount.Write(id, 0, []byte("rack-wide contents"))
	got, ok := b.Mount.Lookup("/shared/cfg")
	if !ok || got != id {
		t.Fatalf("lookup = %d,%v", got, ok)
	}
	buf := make([]byte, 18)
	if n, err := b.Mount.Read(id, 0, buf); err != nil || n != 18 {
		t.Fatalf("read = %d,%v", n, err)
	}
	if string(buf) != "rack-wide contents" {
		t.Fatalf("read %q", buf)
	}
}

func TestIPCThroughFacade(t *testing.T) {
	r := Boot(Config{Nodes: 2, GlobalMemory: 160 << 20})
	l, err := r.OS(0).Endpoint.Bind("svc")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := l.Accept()
		buf := make([]byte, 256)
		n, err := c.Recv(buf)
		if err == nil {
			c.Send(bytes.ToUpper(buf[:n]))
		}
	}()
	c, err := r.OS(1).Endpoint.Connect("svc")
	if err != nil {
		t.Fatal(err)
	}
	c.Send([]byte("hello"))
	buf := make([]byte, 256)
	n, err := c.Recv(buf)
	if err != nil || string(buf[:n]) != "HELLO" {
		t.Fatalf("echo = %q, %v", buf[:n], err)
	}
	c.Close()
	wg.Wait()
}

func TestSharedAddressSpaceThroughFacade(t *testing.T) {
	r := Boot(Config{Nodes: 2, GlobalMemory: 160 << 20})
	s := r.NewSpace()
	m0 := r.OS(0).Attach(s)
	m1 := r.OS(1).Attach(s)
	if err := m0.MMap(0x100000, 2, memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		t.Fatal(err)
	}
	if err := m0.Write(0x100000, []byte("one address space")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 17)
	if err := m1.Read(0x100000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "one address space" {
		t.Fatalf("read %q", buf)
	}
}

func TestFaultBoxThroughFacade(t *testing.T) {
	r := Boot(Config{Nodes: 2, GlobalMemory: 160 << 20})
	b, err := r.Boxes.Create("app", r.Fabric.Node(0), faultbox.Config{
		HeapPages: 2, StackPages: 1, Criticality: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.MMU().Write(faultbox.HeapVA, []byte("survives crashes"))
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.Fabric.Node(0).Crash()
	nb, err := b.RecoverOn(r.Fabric.Node(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	nb.MMU().Read(faultbox.HeapVA, buf)
	if string(buf) != "survives crashes" {
		t.Fatalf("recovered %q", buf)
	}
}

func TestServerlessThroughFacade(t *testing.T) {
	r := Boot(Config{Nodes: 2, GlobalMemory: 160 << 20, PageCacheFrames: 8192})
	reg := serverless.NewRegistry(5_000_000, 0.02)
	reg.Push(serverless.SyntheticImage("app", 2, 4<<20))
	cfg := serverless.DefaultRuntimeConfig()
	cfg.InitNS = 10_000_000
	ctl := r.Serverless(reg, cfg)
	ctl.Deploy("fn", "app", func(n *fabric.Node, req []byte) []byte {
		return append(req, '!')
	})
	out, err := ctl.Invoke(r.Fabric.Node(1), "fn", []byte("hi"))
	if err != nil || string(out) != "hi!" {
		t.Fatalf("invoke = %q, %v", out, err)
	}
}

func TestHardwareDiscoveryFromEveryNode(t *testing.T) {
	r := Boot(Config{Nodes: 2, GlobalMemory: 160 << 20})
	for i := 0; i < r.Nodes(); i++ {
		desc, err := boot.Discover(r.OS(i).Node, r.HWTable)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if len(desc.Nodes) != 2 || desc.GlobalMemBytes != r.Fabric.Size() {
			t.Fatalf("node %d sees %+v", i, desc)
		}
		if len(desc.Devices) != 1 || desc.Devices[0].Name != "blk0" {
			t.Fatalf("device inventory wrong: %+v", desc.Devices)
		}
	}
}

func TestScrubberWiredToFabric(t *testing.T) {
	r := Boot(Config{Nodes: 1, GlobalMemory: 160 << 20})
	g := r.Fabric.Reserve(64, 64)
	r.Fabric.WriteAtHome(g, []byte{1, 2, 3})
	reg := struct {
		G    fabric.GPtr
		Size uint64
	}{g, 64}
	r.Scrubber.Protect(struct {
		G    fabric.GPtr
		Size uint64
	}(reg))
	if bad := r.Scrubber.ScrubOnce(); len(bad) != 0 {
		t.Fatal("clean region flagged")
	}
	r.Fabric.Faults().FlipBitAtHome(r.Fabric, g, 7)
	if bad := r.Scrubber.ScrubOnce(); len(bad) != 1 {
		t.Fatal("corruption not detected through facade")
	}
}

func TestRedisStoreSharedThroughFacade(t *testing.T) {
	r := Boot(Config{Nodes: 2})
	defer r.Shutdown()
	rec := r.EnableTrace(trace.Config{RingCap: 1 << 10})

	// Views from different OS instances serve ONE dataset.
	a, b := r.OS(0).RedisView(), r.OS(1).RedisView()
	if err := a.Set("facade", []byte("shared"), 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get("facade"); !ok || string(got) != "shared" {
		t.Fatalf("node 1 view: %q ok=%v", got, ok)
	}
	if n := r.RedisStore().Len(r.OS(1).Node); n != 1 {
		t.Fatalf("the rack's store holds %d keys, want the views' one", n)
	}

	// A per-node server executes against the same keyspace.
	srv := redis.NewServer(r.OS(1).RedisView())
	if resp := srv.Execute([]byte("*2\r\n$3\r\nGET\r\n$6\r\nfacade\r\n")); !bytes.Contains(resp, []byte("shared")) {
		t.Fatalf("server on node 1: %q", resp)
	}

	// EnableTrace ran first, so SET/GET emit redis spans.
	rt := rec.Collector().Snapshot(r.Fabric.Node(0))
	found := false
	for _, ev := range rt.Events {
		if ev.Sub == trace.SubRedis && (ev.Kind == trace.KSet || ev.Kind == trace.KGet) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no redis SET/GET spans in the flight recorder")
	}
}
