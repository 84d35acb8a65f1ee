// Faulttolerance walks the paper's reliability story (§3.6) end to end:
// silent memory corruption caught by the scrubber, a fault box surviving
// its host node's crash through cross-node recovery, n-modular execution
// outvoting a corrupt replica, and blast-radius isolation between boxes.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"flacos/internal/core"
	"flacos/internal/fabric"
	"flacos/internal/faultbox"
	"flacos/internal/flacdk/reliability"
)

// appState is the demo application's logical state.
type appState struct{ requestsServed uint64 }

func (a *appState) Snapshot() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], a.requestsServed)
	return b[:]
}
func (a *appState) Restore(b []byte) { a.requestsServed = binary.LittleEndian.Uint64(b) }

func main() {
	rack := core.Boot(core.Config{Nodes: 3, FaultSeed: 42})
	fmt.Printf("rack up: %d nodes\n\n", rack.Nodes())

	// --- 1. Scrubbing detects silent corruption in global memory ---
	fmt.Println("== scrubbing & detection")
	g := rack.Fabric.Reserve(256, 64)
	rack.Fabric.WriteAtHome(g, []byte("precious kernel metadata"))
	region := reliability.Region{G: g, Size: 256}
	rack.Scrubber.Protect(region)
	rack.Fabric.Faults().FlipBitAtHome(rack.Fabric, g.Add(64), 3) // a cosmic ray
	bad := rack.Scrubber.ScrubOnce()
	fmt.Printf("scrub found %d corrupted region(s); repairing...\n", len(bad))
	good := make([]byte, 256)
	copy(good, []byte("precious kernel metadata"))
	rack.Scrubber.Repair(region, good)
	fmt.Printf("after repair: %d corrupted region(s)\n\n", len(rack.Scrubber.ScrubOnce()))

	// --- 2. A fault box survives its host's death ---
	fmt.Println("== fault box crash recovery")
	app := &appState{}
	box, err := rack.Boxes.Create("payments", rack.Fabric.Node(0), faultbox.Config{
		HeapPages: 8, StackPages: 2, Criticality: 2, // -> eager replication
	}, app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("box %q on node 0, redundancy=%v\n", box.Name, box.Redundancy())
	box.MMU().Write(faultbox.HeapVA, []byte("ledger: alice=100 bob=42"))
	app.requestsServed = 1337
	if err := box.Quiesce(); err != nil { // eager checkpoint under RedReplicate
		log.Fatal(err)
	}
	rack.Fabric.Node(0).Crash()
	fmt.Println("node 0 crashed (its caches and local state are gone)")

	app2 := &appState{}
	recovered, err := box.RecoverOn(rack.Fabric.Node(1), app2)
	if err != nil {
		log.Fatal(err)
	}
	ledger := make([]byte, 24)
	recovered.MMU().Read(faultbox.HeapVA, ledger)
	fmt.Printf("recovered on node %d: heap=%q app.requestsServed=%d\n\n",
		recovered.Node().ID(), ledger, app2.requestsServed)

	// --- 3. N-modular execution outvotes a corrupt replica ---
	fmt.Println("== n-modular execution")
	nodes := []*fabric.Node{rack.Fabric.Node(1), rack.Fabric.Node(2), rack.Fabric.Node(1)}
	out, err := faultbox.NModularCall(nodes, func(n *fabric.Node) []byte {
		if n.ID() == 2 {
			return []byte("CORRUPTED-RESULT") // one replica went bad
		}
		return []byte("42")
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3 replicas voted; majority answer: %q\n\n", out)

	// --- 4. Fault isolation: destroying one box leaves others intact ---
	fmt.Println("== blast radius")
	bystander, _ := rack.Boxes.Create("analytics", rack.Fabric.Node(2), faultbox.Config{
		HeapPages: 4, StackPages: 1,
	}, nil)
	bystander.MMU().Write(faultbox.HeapVA, []byte("unrelated data"))
	recovered.Destroy() // the faulty app is torn down as one unit
	check := make([]byte, 14)
	bystander.MMU().Read(faultbox.HeapVA, check)
	fmt.Printf("after destroying %q, bystander still has %q (boxes left: %d)\n",
		"payments", check, rack.Boxes.Boxes())
}
