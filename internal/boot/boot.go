// Package boot implements the paper's §5 "system bootstrapping" item: the
// hardware description — node topology, memory layout, device inventory —
// lives in shared global memory (an FDT/ACPI analogue), published once by
// the boot node and discovered by every other node as it comes up, instead
// of each node probing its own view of the machine.
//
// Layout at the published address:
//
//	word 0: magic (atomic; published LAST, so readers that see the magic
//	        are guaranteed a complete, written-back table)
//	word 1: version<<32 | payload length
//	word 2: CRC32 of the payload
//	line 1+: payload (binary-serialized HWDesc)
package boot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// Magic identifies a published hardware description table.
const Magic = 0x464c4143_44455343 // "FLACDESC"

// Version is the table format version.
const Version = 1

// ErrNoTable is returned when no valid table exists at the address.
var ErrNoTable = errors.New("boot: no hardware description table")

// NodeDesc describes one compute node.
type NodeDesc struct {
	ID         uint32
	Cores      uint32
	Hops       uint32
	LocalMemMB uint32
}

// DeviceDesc describes one rack device.
type DeviceDesc struct {
	Name  string
	Owner uint32
	Kind  string // "block", "nic", ...
}

// HWDesc is the rack's hardware description.
type HWDesc struct {
	GlobalMemBytes uint64
	BootSeq        uint64
	Nodes          []NodeDesc
	Devices        []DeviceDesc
}

func (d HWDesc) encode() []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint64(out, d.GlobalMemBytes)
	out = binary.LittleEndian.AppendUint64(out, d.BootSeq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(d.Nodes)))
	for _, n := range d.Nodes {
		out = binary.LittleEndian.AppendUint32(out, n.ID)
		out = binary.LittleEndian.AppendUint32(out, n.Cores)
		out = binary.LittleEndian.AppendUint32(out, n.Hops)
		out = binary.LittleEndian.AppendUint32(out, n.LocalMemMB)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(d.Devices)))
	for _, dev := range d.Devices {
		out = binary.LittleEndian.AppendUint32(out, dev.Owner)
		out = appendString(out, dev.Name)
		out = appendString(out, dev.Kind)
	}
	return out
}

func appendString(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
	return append(out, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("boot: truncated string header")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return "", nil, fmt.Errorf("boot: truncated string body")
	}
	return string(b[:n]), b[n:], nil
}

func decode(b []byte) (HWDesc, error) {
	var d HWDesc
	if len(b) < 20 {
		return d, fmt.Errorf("boot: table too short")
	}
	d.GlobalMemBytes = binary.LittleEndian.Uint64(b)
	d.BootSeq = binary.LittleEndian.Uint64(b[8:])
	nNodes := binary.LittleEndian.Uint32(b[16:])
	b = b[20:]
	for i := uint32(0); i < nNodes; i++ {
		if len(b) < 16 {
			return d, fmt.Errorf("boot: truncated node %d", i)
		}
		d.Nodes = append(d.Nodes, NodeDesc{
			ID:         binary.LittleEndian.Uint32(b),
			Cores:      binary.LittleEndian.Uint32(b[4:]),
			Hops:       binary.LittleEndian.Uint32(b[8:]),
			LocalMemMB: binary.LittleEndian.Uint32(b[12:]),
		})
		b = b[16:]
	}
	if len(b) < 4 {
		return d, fmt.Errorf("boot: truncated device count")
	}
	nDevs := binary.LittleEndian.Uint32(b)
	b = b[4:]
	for i := uint32(0); i < nDevs; i++ {
		if len(b) < 4 {
			return d, fmt.Errorf("boot: truncated device %d", i)
		}
		owner := binary.LittleEndian.Uint32(b)
		b = b[4:]
		var name, kind string
		var err error
		if name, b, err = readString(b); err != nil {
			return d, err
		}
		if kind, b, err = readString(b); err != nil {
			return d, err
		}
		d.Devices = append(d.Devices, DeviceDesc{Name: name, Owner: owner, Kind: kind})
	}
	return d, nil
}

// DefaultPayloadCap is the conventional payload budget for the table
// reservation, a whole number of lines.
const DefaultPayloadCap = 16 << 10

// TableCap is the reservation size of a table whose payload is at most
// DefaultPayloadCap bytes: a header line, then the payload (core.Boot
// reserves it).
const TableCap = fabric.LineSize + DefaultPayloadCap

// Publish writes desc to the table at g (reserved with TableCap space) and
// makes it discoverable. The boot node calls it once; republishing with a
// higher BootSeq is allowed (hardware hotplug).
func Publish(n *fabric.Node, g fabric.GPtr, desc HWDesc) error {
	payload := desc.encode()
	ds.PublishRange(n, g.Add(fabric.LineSize), payload)
	n.AtomicStore64(g.Add(8), uint64(Version)<<32|uint64(uint32(len(payload))))
	n.AtomicStore64(g.Add(16), uint64(crc32.ChecksumIEEE(payload)))
	n.AtomicStore64(g, Magic) // publish last
	return nil
}

// Discover reads and validates the table from any node, assuming the
// conventional DefaultPayloadCap reservation.
func Discover(n *fabric.Node, g fabric.GPtr) (HWDesc, error) {
	return DiscoverCapped(n, g, DefaultPayloadCap)
}

// DiscoverCapped reads and validates a table whose reservation holds a
// header line and payloadCap bytes. Every header word comes from shared
// memory a corrupted or hostile node may have scribbled on, so nothing in
// it is trusted: an implausible length is rejected before it can drive
// reads outside the reservation.
func DiscoverCapped(n *fabric.Node, g fabric.GPtr, payloadCap uint64) (HWDesc, error) {
	if n.AtomicLoad64(g) != Magic {
		return HWDesc{}, ErrNoTable
	}
	meta := n.AtomicLoad64(g.Add(8))
	if meta>>32 != Version {
		return HWDesc{}, fmt.Errorf("boot: unsupported table version %d", meta>>32)
	}
	ln := uint64(uint32(meta))
	if ln > payloadCap {
		return HWDesc{}, fmt.Errorf("boot: table length %d exceeds reservation %d (corrupted?)", ln, payloadCap)
	}
	payload := make([]byte, ln)
	ds.ReadRange(n, g.Add(fabric.LineSize), payload)
	if uint64(crc32.ChecksumIEEE(payload)) != n.AtomicLoad64(g.Add(16)) {
		return HWDesc{}, fmt.Errorf("boot: hardware table checksum mismatch (corrupted?)")
	}
	return decode(payload)
}
