package ds

import (
	"fmt"
	"sync/atomic"

	"flacos/internal/fabric"
)

// brokenSkipPopInvalidate makes SPSCRing.TryPop skip the cache invalidate
// that makes the producer's published payload visible — a deliberately
// broken sync path the torture harness enables (-torture-break
// ring-invalidate) to prove its checkers catch a removed invalidate.
var brokenSkipPopInvalidate atomic.Bool

// SetBrokenSkipPopInvalidate toggles the torture-only broken consume path.
func SetBrokenSkipPopInvalidate(on bool) { brokenSkipPopInvalidate.Store(on) }

// SPSCRing is a single-producer single-consumer ring of variable-length
// messages in global memory: the zero-copy data plane FlacOS IPC builds on
// (§3.5). Head and tail are fabric atomics; message payloads are plain
// cached data published with write-back and consumed after invalidation —
// the "streaming access synchronized via cache invalidation" pattern the
// paper describes for shared data buffers.
//
// Every fabric atomic is a round trip to the memory device, so each
// endpoint keeps its view of the cursors in private state (prod, cons) and
// goes to the home words only to publish its own cursor or when its view
// of the peer's says full/empty.
type SPSCRing struct {
	headG    fabric.GPtr // atomic: consumer cursor
	tailG    fabric.GPtr // atomic: producer cursor
	slots    fabric.GPtr
	slotSize uint64 // per-slot bytes, including the 8-byte length header
	capacity uint64 // slots, power of two

	// prod and cons model the two endpoints' node-local memory: each is
	// touched only by the goroutine driving that side, and the padding
	// keeps them off each other's host cache line.
	_    [64]byte
	prod ringProducer
	_    [64]byte
	cons ringConsumer
}

// ringProducer is the producer endpoint's private state. tail is assigned
// only after its AtomicStore64 to tailG returns, so it equals the home
// word at every instant and a crash/restart of node needs no resync.
// headSeen may lag the home head; head only grows, so a stale value
// under-reports free space and is reloaded before "full" is reported.
type ringProducer struct {
	node     *fabric.Node // attached node, nil before the first push
	tail     uint64
	headSeen uint64
}

// ringConsumer is the consumer endpoint's private state: head mirrors the
// home word like ringProducer.tail, tailSeen may lag and is reloaded
// before "empty" is reported. extent[i] bounds the bytes of slot i that
// can be resident in node's cache — what its previous lap read from the
// slot (the whole slot until it has read it once) — so a pop invalidates
// those lines, not the slot's full width.
type ringConsumer struct {
	node     *fabric.Node // attached node, nil before the first pop
	head     uint64
	tailSeen uint64
	extent   []uint64
}

// NewSPSCRing reserves a ring of capacity slots (rounded to a power of
// two), each carrying messages up to msgMax bytes.
func NewSPSCRing(f *fabric.Fabric, capacity, msgMax uint64) *SPSCRing {
	c := uint64(2)
	for c < capacity {
		c <<= 1
	}
	ss := fabric.AlignUp64(msgMax+8, fabric.LineSize)
	return &SPSCRing{
		headG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		tailG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		slots:    f.Reserve(c*ss, fabric.LineSize),
		slotSize: ss,
		capacity: c,
		cons:     ringConsumer{extent: make([]uint64, c)},
	}
}

// MsgMax returns the largest message the ring accepts.
func (r *SPSCRing) MsgMax() uint64 { return r.slotSize - 8 }

func (r *SPSCRing) slotG(pos uint64) fabric.GPtr {
	return r.slots.Add((pos & (r.capacity - 1)) * r.slotSize)
}

// attachProducer makes n the producing node: a node other than the one
// whose pushes built the private view (a connection slot reused from
// another node) reads its own cursor from home and starts from a view of
// the peer's that looks full, so its first push reloads the head too.
func (r *SPSCRing) attachProducer(n *fabric.Node) {
	p := &r.prod
	p.tail = n.AtomicLoad64(r.tailG)
	p.headSeen = p.tail - r.capacity
	p.node = n
}

// attachConsumer is attachProducer for the consuming side, starting from
// a view that looks empty. The new node's cache may hold any line of any
// slot (it may have produced into this ring, or consumed from it before
// another node took over), so every extent widens back to the whole slot.
func (r *SPSCRing) attachConsumer(n *fabric.Node) {
	c := &r.cons
	c.head = n.AtomicLoad64(r.headG)
	c.tailSeen = c.head
	for i := range c.extent {
		c.extent[i] = r.slotSize
	}
	c.node = n
}

// TryPush enqueues msg, returning false if the ring is full. Only one
// goroutine (the producer) may call it.
func (r *SPSCRing) TryPush(n *fabric.Node, msg []byte) bool {
	if uint64(len(msg)) > r.MsgMax() {
		panic(fmt.Sprintf("ds: message %d exceeds ring max %d", len(msg), r.MsgMax()))
	}
	p := &r.prod
	if p.node != n {
		r.attachProducer(n)
	}
	if p.tail-p.headSeen == r.capacity {
		p.headSeen = n.AtomicLoad64(r.headG)
		if p.tail-p.headSeen == r.capacity {
			return false
		}
	}
	s := r.slotG(p.tail)
	n.Store64(s, uint64(len(msg)))
	if len(msg) > 0 {
		n.Write(s.Add(8), msg)
	}
	//flacvet:ignore raw-maintenance the length word is a plain Store64 and an empty message writes no payload, so the write-back starts at the header
	n.WriteBackRange(s, 8+uint64(len(msg)))
	n.AtomicStore64(r.tailG, p.tail+1)
	p.tail++
	return true
}

// Push enqueues msg, waiting while the ring is full.
func (r *SPSCRing) Push(n *fabric.Node, msg []byte) {
	n.Await(fabric.Wait{Site: "ds.SPSCRing.Push", Word: r.headG}, func() (uint64, bool) {
		ok := r.TryPush(n, msg)
		return r.prod.headSeen, ok
	})
}

// TryPop dequeues one message into buf, returning its length and whether a
// message was available. Only one goroutine (the consumer) may call it.
func (r *SPSCRing) TryPop(n *fabric.Node, buf []byte) (int, bool) {
	c := &r.cons
	if c.node != n {
		r.attachConsumer(n)
	}
	if c.head == c.tailSeen {
		c.tailSeen = n.AtomicLoad64(r.tailG)
		if c.head == c.tailSeen {
			return 0, false
		}
	}
	s := r.slotG(c.head)
	extent := &c.extent[c.head&(r.capacity-1)]
	if !brokenSkipPopInvalidate.Load() {
		//flacvet:ignore raw-maintenance drops the slot's previous extent before the length word is decoded with Load64
		n.InvalidateRange(s, *extent)
	}
	// The invalidate above is conditional ONLY because the torture
	// harness plants its removal as a self-test bug (-torture-break
	// ring-invalidate); flacvet correctly sees a path without it. The
	// unconditional-skip variant lives in coherlint's testdata corpus,
	// where the linter must (and does) flag it.
	//flacvet:ignore read-without-invalidate torture-only broken path, see SetBrokenSkipPopInvalidate
	ln := n.Load64(s)
	if ln > uint64(len(buf)) {
		panic(fmt.Sprintf("ds: buffer %d too small for message %d", len(buf), ln))
	}
	*extent = 8 + ln
	if ln > 0 {
		n.Read(s.Add(8), buf[:ln])
	}
	// No lazy head publication: a consumer that crashes after returning a
	// message must not find it in the ring again.
	n.AtomicStore64(r.headG, c.head+1)
	c.head++
	return int(ln), true
}

// Pop dequeues one message, waiting while the ring is empty.
func (r *SPSCRing) Pop(n *fabric.Node, buf []byte) (ln int) {
	n.Await(fabric.Wait{Site: "ds.SPSCRing.Pop", Word: r.tailG}, func() (uint64, bool) {
		var ok bool
		ln, ok = r.TryPop(n, buf)
		return r.cons.tailSeen, ok
	})
	return ln
}

// Len returns the number of queued messages.
func (r *SPSCRing) Len(n *fabric.Node) uint64 {
	return n.AtomicLoad64(r.tailG) - n.AtomicLoad64(r.headG)
}

// MPSCRing is a multi-producer single-consumer ring (Vyukov bounded queue
// over fabric atomics): producers on any node, one consumer. FlacOS uses it
// for request funnels such as the RPC dispatch queue.
type MPSCRing struct {
	headG    fabric.GPtr // atomic: consumer cursor
	tailG    fabric.GPtr // atomic: producer ticket
	slots    fabric.GPtr
	slotSize uint64 // seq line + payload
	capacity uint64
}

// NewMPSCRing reserves a ring of capacity slots (power of two), messages up
// to msgMax bytes. node initializes the per-slot sequence words.
func NewMPSCRing(f *fabric.Fabric, node *fabric.Node, capacity, msgMax uint64) *MPSCRing {
	c := uint64(2)
	for c < capacity {
		c <<= 1
	}
	// Slot: one control line (word0 seq, word1 len) + payload lines.
	ss := fabric.LineSize + fabric.AlignUp64(msgMax, fabric.LineSize)
	r := &MPSCRing{
		headG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		tailG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		slots:    f.Reserve(c*ss, fabric.LineSize),
		slotSize: ss,
		capacity: c,
	}
	for i := uint64(0); i < c; i++ {
		node.AtomicStore64(r.seqG(i), i)
	}
	return r
}

func (r *MPSCRing) seqG(i uint64) fabric.GPtr { return r.slots.Add(i * r.slotSize) }
func (r *MPSCRing) lenG(i uint64) fabric.GPtr { return r.seqG(i).Add(8) }
func (r *MPSCRing) payG(i uint64) fabric.GPtr { return r.seqG(i).Add(fabric.LineSize) }

// MsgMax returns the largest message the ring accepts.
func (r *MPSCRing) MsgMax() uint64 { return r.slotSize - fabric.LineSize }

// TryPush enqueues msg from any producer, returning false if full.
func (r *MPSCRing) TryPush(n *fabric.Node, msg []byte) bool {
	if uint64(len(msg)) > r.MsgMax() {
		panic(fmt.Sprintf("ds: message %d exceeds ring max %d", len(msg), r.MsgMax()))
	}
	pos := n.AtomicLoad64(r.tailG)
	for {
		i := pos & (r.capacity - 1)
		seq := n.AtomicLoad64(r.seqG(i))
		switch {
		case seq == pos:
			if n.CAS64(r.tailG, pos, pos+1) {
				PublishRange(n, r.payG(i), msg)
				n.AtomicStore64(r.lenG(i), uint64(len(msg)))
				n.AtomicStore64(r.seqG(i), pos+1)
				return true
			}
			pos = n.AtomicLoad64(r.tailG)
		case seq < pos:
			return false // slot not yet consumed: full
		default:
			pos = n.AtomicLoad64(r.tailG)
		}
	}
}

// Push enqueues msg, waiting while the ring is full.
func (r *MPSCRing) Push(n *fabric.Node, msg []byte) {
	n.Await(fabric.Wait{Site: "ds.MPSCRing.Push"}, func() (uint64, bool) {
		return 0, r.TryPush(n, msg)
	})
}

// TryPop dequeues one message; single consumer only.
func (r *MPSCRing) TryPop(n *fabric.Node, buf []byte) (int, bool) {
	pos := n.AtomicLoad64(r.headG)
	i := pos & (r.capacity - 1)
	if n.AtomicLoad64(r.seqG(i)) != pos+1 {
		return 0, false
	}
	ln := n.AtomicLoad64(r.lenG(i))
	if ln > uint64(len(buf)) {
		panic(fmt.Sprintf("ds: buffer %d too small for message %d", len(buf), ln))
	}
	ReadRange(n, r.payG(i), buf[:ln])
	n.AtomicStore64(r.seqG(i), pos+r.capacity)
	n.AtomicStore64(r.headG, pos+1)
	return int(ln), true
}
