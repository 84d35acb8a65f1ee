package reliability

import (
	"fmt"
	"hash/crc32"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// Checkpointer stores double-buffered, checksummed snapshots in global
// memory. Writes alternate between two slots and publish the header with
// fabric atomics only after the data is home, so a crash mid-checkpoint
// leaves the previous generation intact and a torn write is detected by
// CRC. Because the slots live in global (interconnect-attached, crash-
// surviving) memory, any node can restore them — the basis of cross-node
// recovery and migration.
//
// Slot layout: one header line (word0: seq, word1: len<<32|crc32,
// word2: applied-index) followed by the data area.
type Checkpointer struct {
	node    *fabric.Node
	slots   [2]fabric.GPtr
	dataCap uint64
	seq     uint64
}

// NewCheckpointer reserves two checkpoint slots able to hold dataCap bytes.
func NewCheckpointer(f *fabric.Fabric, n *fabric.Node, dataCap uint64) *Checkpointer {
	c := &Checkpointer{node: n, dataCap: dataCap}
	slotSize := fabric.LineSize + fabric.AlignUp64(dataCap, fabric.LineSize)
	c.slots[0] = f.Reserve(slotSize, fabric.LineSize)
	c.slots[1] = f.Reserve(slotSize, fabric.LineSize)
	return c
}

// Save stores one snapshot tagged with appliedIdx (the operation-log cursor
// the snapshot reflects).
func (c *Checkpointer) Save(data []byte, appliedIdx uint64) {
	if uint64(len(data)) > c.dataCap {
		panic(fmt.Sprintf("reliability: snapshot %d exceeds checkpoint capacity %d", len(data), c.dataCap))
	}
	c.seq++
	slot := c.slots[c.seq%2]
	n := c.node
	ds.PublishRange(n, slot.Add(fabric.LineSize), data)
	crc := crc32.ChecksumIEEE(data)
	n.AtomicStore64(slot.Add(8), uint64(len(data))<<32|uint64(crc))
	n.AtomicStore64(slot.Add(16), appliedIdx)
	n.AtomicStore64(slot, c.seq) // header publish: highest seq wins
}

// Latest returns the newest valid snapshot readable by node n (which may
// be a different node than the writer — recovery after a crash). ok is
// false when no intact checkpoint exists.
func (c *Checkpointer) Latest(n *fabric.Node) (data []byte, appliedIdx uint64, ok bool) {
	type cand struct {
		seq  uint64
		slot fabric.GPtr
	}
	var cands []cand
	for _, slot := range c.slots {
		if seq := n.AtomicLoad64(slot); seq > 0 {
			cands = append(cands, cand{seq, slot})
		}
	}
	// Try newest first, fall back to the older generation on CRC mismatch.
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].seq > cands[best].seq {
				best = i
			}
		}
		slot := cands[best].slot
		meta := n.AtomicLoad64(slot.Add(8))
		ln := meta >> 32
		crc := uint32(meta)
		buf := make([]byte, ln)
		ds.ReadRange(n, slot.Add(fabric.LineSize), buf)
		if crc32.ChecksumIEEE(buf) == crc {
			return buf, n.AtomicLoad64(slot.Add(16)), true
		}
		cands = append(cands[:best], cands[best+1:]...)
	}
	return nil, 0, false
}
