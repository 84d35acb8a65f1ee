package boot

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"flacos/internal/fabric"
)

func rack(t *testing.T) (*fabric.Fabric, fabric.GPtr) {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: 2})
	return f, f.Reserve(TableCap, fabric.LineSize)
}

func sample() HWDesc {
	return HWDesc{
		GlobalMemBytes: 16 << 30,
		BootSeq:        1,
		Nodes: []NodeDesc{
			{ID: 0, Cores: 320, Hops: 1, LocalMemMB: 262144},
			{ID: 1, Cores: 320, Hops: 1, LocalMemMB: 262144},
		},
		Devices: []DeviceDesc{
			{Name: "nvme0", Owner: 0, Kind: "block"},
			{Name: "eth0", Owner: 1, Kind: "nic"},
		},
	}
}

func TestPublishDiscoverCrossNode(t *testing.T) {
	f, g := rack(t)
	want := sample()
	if err := Publish(f.Node(0), g, want); err != nil {
		t.Fatal(err)
	}
	got, err := Discover(f.Node(1), g) // discovered by the OTHER node
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
}

func TestDiscoverBeforePublish(t *testing.T) {
	f, g := rack(t)
	if _, err := Discover(f.Node(0), g); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v, want ErrNoTable", err)
	}
}

func TestRepublishHotplug(t *testing.T) {
	f, g := rack(t)
	d := sample()
	Publish(f.Node(0), g, d)
	d.BootSeq = 2
	d.Devices = append(d.Devices, DeviceDesc{Name: "nvme1", Owner: 1, Kind: "block"})
	if err := Publish(f.Node(0), g, d); err != nil {
		t.Fatal(err)
	}
	got, err := Discover(f.Node(1), g)
	if err != nil {
		t.Fatal(err)
	}
	if got.BootSeq != 2 || len(got.Devices) != 3 {
		t.Fatalf("hotplug not visible: %+v", got)
	}
}

func TestCorruptedTableDetected(t *testing.T) {
	f, g := rack(t)
	Publish(f.Node(0), g, sample())
	f.Faults().FlipBitAtHome(f, g.Add(fabric.LineSize), 5)
	if _, err := Discover(f.Node(1), g); err == nil {
		t.Fatal("corrupted table should fail checksum")
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(mem uint64, seq uint64, nodeCount uint8, name string, kind string) bool {
		d := HWDesc{GlobalMemBytes: mem, BootSeq: seq}
		for i := uint8(0); i < nodeCount%8; i++ {
			d.Nodes = append(d.Nodes, NodeDesc{ID: uint32(i), Cores: uint32(i) * 10, Hops: 1, LocalMemMB: 1024})
		}
		if len(name) > 0 {
			d.Devices = append(d.Devices, DeviceDesc{Name: name, Owner: 0, Kind: kind})
		}
		got, err := decode(d.encode())
		return err == nil && reflect.DeepEqual(got, normalize(d))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps empty slices to nil for DeepEqual symmetry with decode.
func normalize(d HWDesc) HWDesc {
	if len(d.Nodes) == 0 {
		d.Nodes = nil
	}
	if len(d.Devices) == 0 {
		d.Devices = nil
	}
	return d
}
