// Package rawmaint is flacvet corpus for rule 5 (raw-maintenance): bare
// ranged maintenance is flagged; the ds publication primitives, the
// whole-cache forms and an ignored call with its reason are not.
package rawmaint

import (
	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
)

// bare hand-rolls both primitives and a flush.
func bare(n *fabric.Node, head, g fabric.GPtr, data, buf []byte) {
	n.Write(g, data)
	n.WriteBackRange(g, uint64(len(data))) // want `bare WriteBackRange`
	n.AtomicStore64(head, uint64(g))
	cur := fabric.GPtr(n.AtomicLoad64(head))
	n.InvalidateRange(cur, uint64(len(buf))) // want `bare InvalidateRange`
	n.Read(cur, buf)
	n.FlushRange(cur, uint64(len(buf))) // want `bare FlushRange`
}

// primitives publishes and reads through the primitives, and writes the
// whole cache back. No diagnostic from any rule.
func primitives(n *fabric.Node, head, g fabric.GPtr, data, buf []byte) {
	ds.PublishRange(n, g, data)
	n.AtomicStore64(head, uint64(g))
	ds.ReadRange(n, fabric.GPtr(n.AtomicLoad64(head)), buf)
	n.Store64(g, 1)
	n.WriteBackAll()
	n.AtomicStore64(head, uint64(g))
}

// ignored publishes records staged with plain stores in one burst, which
// neither primitive expresses, and says so.
func ignored(n *fabric.Node, base, head fabric.GPtr, vs []uint64) {
	for i, v := range vs {
		n.Store64(base.Add(uint64(i)*fabric.WordSize), v)
	}
	//flacvet:ignore raw-maintenance one burst publishes every record staged above
	n.WriteBackRange(base, uint64(len(vs))*fabric.WordSize)
	n.AtomicStore64(head, uint64(len(vs)))
}
