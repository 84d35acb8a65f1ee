package boot

import (
	"reflect"
	"testing"

	"flacos/internal/fabric"
)

// fuzzDesc is the table every corruption run publishes before scribbling.
var fuzzDesc = HWDesc{
	GlobalMemBytes: 1 << 30,
	BootSeq:        7,
	Nodes: []NodeDesc{
		{ID: 0, Cores: 8, Hops: 1, LocalMemMB: 4096},
		{ID: 1, Cores: 8, Hops: 2, LocalMemMB: 4096},
	},
	Devices: []DeviceDesc{
		{Name: "nvme0", Owner: 0, Kind: "block"},
		{Name: "eth0", Owner: 1, Kind: "nic"},
	},
}

// FuzzHWDescDecode throws arbitrary bytes at the payload parser: it must
// never panic, and anything it accepts must re-encode canonically
// (decode(encode(decode(x))) == decode(x)).
func FuzzHWDescDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzDesc.encode())
	f.Add(HWDesc{}.encode())
	// Truncations and hostile counts.
	enc := fuzzDesc.encode()
	f.Add(enc[:20])
	f.Add(enc[:len(enc)-3])
	f.Add(append(append([]byte{}, enc[:16]...), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decode(data)
		if err != nil {
			return
		}
		d2, err := decode(d.encode())
		if err != nil || !reflect.DeepEqual(d, d2) {
			t.Fatalf("decode accepted %q but canonical round-trip gave (%+v, %v), want %+v", data, d2, err, d)
		}
	})
}

// FuzzBootDiscoverCorrupted publishes a valid table, then XOR-corrupts the
// payload (and, driven by the input, the header words) exactly as flaky
// hardware or a hostile node could. Discover must never panic and must
// reject every table that decodes differently from what was published.
func FuzzBootDiscoverCorrupted(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x00, 0xff, 0x00, 0xff})
	f.Add([]byte{0xaa, 0x55, 0x03})
	f.Fuzz(func(t *testing.T, mask []byte) {
		const payloadCap = 4096
		fab := fabric.New(fabric.Config{GlobalSize: 1 << 16, Nodes: 1, CacheCapacityLines: -1})
		n := fab.Node(0)
		g := fab.Reserve(TableCap, fabric.LineSize)
		if err := Publish(n, g, fuzzDesc); err != nil {
			t.Fatal(err)
		}
		payloadLen := uint64(len(fuzzDesc.encode()))

		corrupted := false
		buf := make([]byte, 1)
		for i, c := range mask {
			if c == 0 {
				continue
			}
			switch {
			case i%17 == 13:
				// Scribble the length word (keeping the version so the
				// check under test is the length bound, not the version).
				meta := n.AtomicLoad64(g.Add(8))
				n.AtomicStore64(g.Add(8), meta^uint64(c))
			case i%17 == 5:
				n.AtomicStore64(g.Add(16), n.AtomicLoad64(g.Add(16))^uint64(c))
			default:
				off := g.Add(fabric.LineSize + uint64(i)%payloadLen)
				n.Read(off, buf)
				buf[0] ^= c
				n.Write(off, buf)
				n.WriteBackRange(off, 1)
			}
			corrupted = true
		}

		got, err := DiscoverCapped(n, g, payloadCap)
		if err == nil && !reflect.DeepEqual(got, fuzzDesc) {
			t.Fatalf("corrupted table (mask %x) accepted as %+v", mask, got)
		}
		if !corrupted && err != nil {
			t.Fatalf("pristine table rejected: %v", err)
		}
	})
}
