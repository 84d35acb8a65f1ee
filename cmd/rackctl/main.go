// Command rackctl boots a simulated FlacOS rack and runs a short guided
// tour: shared files, cross-node IPC, a shared address space, a fault-box
// crash/recovery, and the rack's fabric statistics. It is the smoke test
// for the whole stack in one binary.
package main

import (
	"flag"
	"fmt"
	"os"

	"flacos/internal/core"
	"flacos/internal/fabric"
	"flacos/internal/faultbox"
	"flacos/internal/memsys"
)

func main() {
	nodes := flag.Int("nodes", 2, "number of nodes in the rack")
	memMB := flag.Uint64("global-mb", 256, "global memory size in MiB")
	flag.Parse()

	rack := core.Boot(core.Config{Nodes: *nodes, GlobalMemory: *memMB << 20})
	fmt.Printf("booted FlacOS rack: %d nodes, %d MiB global memory\n\n",
		rack.Nodes(), rack.Fabric.Size()>>20)

	step := func(name string, fn func() error) {
		fmt.Printf("== %s\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "rackctl: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	step("shared file system", func() error {
		a, b := rack.OS(0), rack.OS(1%rack.Nodes())
		id, err := a.Mount.Create("/etc/rack.conf")
		if err != nil {
			return err
		}
		a.Mount.Write(id, 0, []byte("nodes=all share this file\n"))
		buf := make([]byte, 64)
		n, err := b.Mount.Read(id, 0, buf)
		if err != nil {
			return err
		}
		fmt.Printf("node %d reads what node %d wrote: %q\n", b.Node.ID(), a.Node.ID(), buf[:n])
		fmt.Printf("shared page cache holds %d pages rack-wide\n", rack.FS.CachedPages(a.Node))
		return nil
	})

	step("zero-copy IPC", func() error {
		a, b := rack.OS(0), rack.OS(1%rack.Nodes())
		l, err := a.Endpoint.Bind("tour.echo")
		if err != nil {
			return err
		}
		defer l.Close()
		go func() {
			c := l.Accept()
			buf := make([]byte, 256)
			if n, err := c.Recv(buf); err == nil {
				c.Send(buf[:n])
			}
		}()
		c, err := b.Endpoint.Connect("tour.echo")
		if err != nil {
			return err
		}
		defer c.Close()
		c.Send([]byte("ping through global memory"))
		buf := make([]byte, 256)
		n, err := c.Recv(buf)
		if err != nil {
			return err
		}
		fmt.Printf("echo: %q\n", buf[:n])
		return nil
	})

	step("rack-wide shared address space", func() error {
		s := rack.NewSpace()
		m0 := rack.OS(0).Attach(s)
		m1 := rack.OS(1 % rack.Nodes()).Attach(s)
		if err := m0.MMap(0x100000, 1, memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
			return err
		}
		if err := m0.Write(0x100000, []byte("one VA space, many nodes")); err != nil {
			return err
		}
		buf := make([]byte, 24)
		if err := m1.Read(0x100000, buf); err != nil {
			return err
		}
		fmt.Printf("node %d via shared page table: %q\n", m1.Node().ID(), buf)
		return nil
	})

	step("fault box crash and recovery", func() error {
		b, err := rack.Boxes.Create("tour.app", rack.Fabric.Node(0), faultbox.Config{
			HeapPages: 4, StackPages: 2, Criticality: 1,
		}, nil)
		if err != nil {
			return err
		}
		b.MMU().Write(faultbox.HeapVA, []byte("critical state"))
		if err := b.Checkpoint(); err != nil {
			return err
		}
		rack.Fabric.Node(0).Crash()
		fmt.Println("node 0 crashed; recovering the box on node 1...")
		target := rack.Fabric.Node(1 % rack.Nodes())
		nb, err := b.RecoverOn(target, nil)
		if err != nil {
			return err
		}
		buf := make([]byte, 14)
		nb.MMU().Read(faultbox.HeapVA, buf)
		fmt.Printf("recovered on node %d: %q\n", nb.Node().ID(), buf)
		rack.Fabric.Node(0).Restart()
		return nil
	})

	step("fabric statistics", func() error {
		for i := 0; i < rack.Nodes(); i++ {
			s := rack.Fabric.Node(i).Stats()
			fmt.Printf("node %d: loads=%d stores=%d misses=%d writebacks=%d atomics=%d virtual=%s\n",
				i, s.Loads, s.Stores, s.Misses, s.WriteBacks, s.Atomics,
				fmtNS(s.VirtualNS))
		}
		return nil
	})
}

func fmtNS(ns uint64) string {
	switch {
	case ns < 1_000_000:
		return fmt.Sprintf("%dus", ns/1000)
	default:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	}
}

var _ = fabric.LineSize
