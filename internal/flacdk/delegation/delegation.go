// Package delegation implements FlacDK's delegation-based synchronization
// (paper §3.2), in the style of ffwd/flat combining: data is partitioned,
// each partition has an owner node, and other nodes access the partition by
// posting requests into per-client slots in global memory that the owner
// polls and executes on their behalf.
//
// The owner touches the partition's data only in its own local memory, so
// the data structure itself needs no cross-node synchronization at all.
// Polling is cheap on the non-coherent fabric because the per-client
// request sequence words are PACKED eight to a cache line (the ffwd trick):
// one invalidate + one line fetch observes eight clients at once. Request
// payloads travel as plain cached data published with write-back.
//
// Payloads small enough to share the control words' cache line travel
// INLINE: a request up to 56 bytes or a response up to 48 bytes costs ONE
// line transfer in each direction instead of two. Since a delegated op is
// pure protocol overhead against the contended atomics it replaces,
// halving its line traffic is what makes delegation profitable at
// realistic fan-ins; larger payloads spill onto the slot's second line and
// pay the extra transfer only when they must.
//
// Requests and responses live in SEGREGATED regions (all request lines
// contiguous, all response lines contiguous) so that both directions can
// be streamed as single pipelined bursts instead of per-slot round trips:
// a combining owner bulk-fetches the whole request region and publishes a
// whole sweep's replies with one write-back (CollectOnce / FlushReplies),
// and a batching caller posts several requests then flushes them together
// and bulk-fetches its response stripe (ClientGroup).
//
// An inline response shares its cache line with its own sequence word,
// which is the line's LAST word. A line does not travel home atomically,
// but a write-back stores its words ascending and a fetch loads them
// descending (the single-line publication contract, internal/fabric/doc.go),
// so inline replies publish with plain stores and write-back — a poller
// that sees the new sequence sees the whole reply. Only two publish points
// need fabric atomics: the packed request sequence word (its line is
// shared across clients) and a SPILLED response's sequence word (its
// payload crosses lines, so the payload must be home before the sequence
// advances).
//
// Each client slot is owned by exactly one caller at a time, so the
// sequence-number protocol needs no CAS: the client bumps its slot's
// request sequence, the server echoes it in the response sequence.
package delegation

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"

	"flacos/internal/fabric"
)

// PayloadMax is the largest request or response payload, one cache line.
const PayloadMax = fabric.LineSize

const wordsPerLine = fabric.LineSize / fabric.WordSize

// Per-slot layout.
//
// Request region, two lines per slot:
//
//	line 0: word 0: op|len, bytes 8..64: inline payload
//	line 1: spill (payload bytes past reqInlineMax)
//
// Response region, two lines per slot:
//
//	line 0: word 0: status|len, bytes 8..56: inline payload, word 7: seq
//	line 1: spill (payload bytes past rspInlineMax)
//
// The response sequence is line 0's last word because it is the commit
// word of a single-line publication (internal/fabric/doc.go).
const (
	reqSlotSize = 2 * fabric.LineSize
	rspSlotSize = 2 * fabric.LineSize
)

// Inline payload capacities: what fits in the request/response line after
// the control words.
const (
	reqInlineMax = fabric.LineSize - 8
	rspInlineMax = fabric.LineSize - 16
)

// Byte offsets inside a response slot's first line.
const (
	rspInlineOff = 8
	rspSeqOff    = fabric.LineSize - 8
)

// Handler executes one delegated operation against the partition's local
// data. It reads req, writes its reply into resp (capacity PayloadMax), and
// returns the reply length and a status code the caller receives verbatim.
type Handler func(op uint32, req []byte, resp []byte) (respLen int, status uint32)

// Domain is one delegation domain: slot regions in global memory serving
// one partition. Create it with NewDomain, attach the owner with Serve (or
// Server/ServeOnce), and attach callers with Client or ClientGroup.
type Domain struct {
	fab     *fabric.Fabric
	slots   int
	seqBase fabric.GPtr // packed request sequence words, 8 per line
	reqBase fabric.GPtr // request region, 2 lines per slot
	rspBase fabric.GPtr // response region, 2 lines per slot
	stopped atomic.Bool
}

// NewDomain reserves global memory for numSlots client slots.
func NewDomain(f *fabric.Fabric, numSlots int) *Domain {
	if numSlots <= 0 {
		panic("delegation: numSlots must be positive")
	}
	seqLines := (numSlots + wordsPerLine - 1) / wordsPerLine
	return &Domain{
		fab:     f,
		slots:   numSlots,
		seqBase: f.Reserve(uint64(seqLines)*fabric.LineSize, fabric.LineSize),
		reqBase: f.Reserve(uint64(numSlots)*reqSlotSize, fabric.LineSize),
		rspBase: f.Reserve(uint64(numSlots)*rspSlotSize, fabric.LineSize),
	}
}

// Slots returns the number of client slots in the domain.
func (d *Domain) Slots() int { return d.slots }

func (d *Domain) reqSeqG(s int) fabric.GPtr    { return d.seqBase.Add(uint64(s) * fabric.WordSize) }
func (d *Domain) reqMetaG(s int) fabric.GPtr   { return d.reqBase.Add(uint64(s) * reqSlotSize) }
func (d *Domain) reqInlineG(s int) fabric.GPtr { return d.reqMetaG(s).Add(8) }
func (d *Domain) reqSpillG(s int) fabric.GPtr  { return d.reqMetaG(s).Add(fabric.LineSize) }
func (d *Domain) rspMetaG(s int) fabric.GPtr   { return d.rspBase.Add(uint64(s) * rspSlotSize) }
func (d *Domain) rspInlineG(s int) fabric.GPtr { return d.rspMetaG(s).Add(rspInlineOff) }
func (d *Domain) rspSeqG(s int) fabric.GPtr    { return d.rspMetaG(s).Add(rspSeqOff) }
func (d *Domain) rspSpillG(s int) fabric.GPtr  { return d.rspMetaG(s).Add(fabric.LineSize) }

// Stop makes the owner's Serve loop return after its current sweep.
func (d *Domain) Stop() { d.stopped.Store(true) }

// Server is the owner's polling state: the last sequence served per slot.
type Server struct {
	d          *Domain
	node       *fabric.Node
	handler    Handler
	lastServed []uint64
	req, resp  []byte
	seqBuf     []byte
	reqBuf     []byte
	deferred   bool
}

// Server binds the owner node's serving state.
func (d *Domain) Server(n *fabric.Node, handler Handler) *Server {
	return &Server{
		d:          d,
		node:       n,
		handler:    handler,
		lastServed: make([]uint64, d.slots),
		req:        make([]byte, PayloadMax),
		resp:       make([]byte, PayloadMax),
		seqBuf:     make([]byte, uint64((d.slots+wordsPerLine-1)/wordsPerLine)*fabric.LineSize),
		reqBuf:     make([]byte, uint64(d.slots)*reqSlotSize),
	}
}

// scanSeqs refreshes the packed request-sequence region into seqBuf with
// one invalidate and ONE pipelined bulk fetch: observing 8 clients per
// line and streaming the lines is what keeps a wide sweep (many slots)
// from costing a full line round trip per slot.
func (sv *Server) scanSeqs() {
	d, n := sv.d, sv.node
	n.InvalidateRange(d.seqBase, uint64(len(sv.seqBuf)))
	n.Read(d.seqBase, sv.seqBuf)
}

// readRequest fetches slot s's posted request into buf (capacity
// PayloadMax): one invalidate covering the request and spill lines, one
// line fetch for the common inline case, a second only when the payload
// spilled.
func (sv *Server) readRequest(s int, buf []byte) (op uint32, reqLen int) {
	d, n := sv.d, sv.node
	n.InvalidateRange(d.reqMetaG(s), reqSlotSize)
	meta := n.Load64(d.reqMetaG(s))
	op = uint32(meta >> 32)
	reqLen = int(uint32(meta))
	inl := reqLen
	if inl > reqInlineMax {
		inl = reqInlineMax
	}
	if inl > 0 {
		n.Read(d.reqInlineG(s), buf[:inl])
	}
	if reqLen > reqInlineMax {
		n.Read(d.reqSpillG(s), buf[inl:reqLen])
	}
	return op, reqLen
}

// publishReply writes one response. An INLINE reply shares the response
// line with its own sequence word, the line's last, so the publish needs
// no fabric atomic at all: plain stores plus one single-line write-back,
// and a poller that fetches the new sequence fetches the whole new reply
// with it. A SPILLED reply has a cross-line ordering hazard (write-back
// pushes the response line — new seq included — before the spill line), so
// it keeps the two-step protocol: payload lines go home first, then the
// sequence word publishes with a fabric atomic.
func (sv *Server) publishReply(slot int, seq uint64, status uint32, resp []byte) {
	d, n := sv.d, sv.node
	if len(resp) <= rspInlineMax {
		sv.writeReplyLine(slot, seq, status, resp)
		n.WriteBackRange(d.rspMetaG(slot), fabric.LineSize)
		return
	}
	n.Store64(d.rspMetaG(slot), uint64(status)<<32|uint64(uint32(len(resp))))
	n.Write(d.rspInlineG(slot), resp[:rspInlineMax])
	n.Write(d.rspSpillG(slot), resp[rspInlineMax:])
	n.WriteBackRange(d.rspMetaG(slot), 2*fabric.LineSize)
	n.AtomicStore64(d.rspSeqG(slot), seq)
}

// writeReplyLine stages one inline reply — status|len, payload, and the
// sequence word — into the slot's response line with plain stores.
func (sv *Server) writeReplyLine(slot int, seq uint64, status uint32, resp []byte) {
	d, n := sv.d, sv.node
	n.Store64(d.rspMetaG(slot), uint64(status)<<32|uint64(uint32(len(resp))))
	if len(resp) > 0 {
		n.Write(d.rspInlineG(slot), resp)
	}
	n.Store64(d.rspSeqG(slot), seq)
}

// ServeOnce sweeps every slot once, executing pending requests, and
// returns how many it served. One invalidate + line fetch of the packed
// sequence region observes every client's publish word.
func (sv *Server) ServeOnce() int {
	sv.scanSeqs()
	served := 0
	for s := 0; s < sv.d.slots; s++ {
		seq := binary.LittleEndian.Uint64(sv.seqBuf[s*8:])
		if seq == sv.lastServed[s] {
			continue
		}
		op, reqLen := sv.readRequest(s, sv.req)
		respLen, status := sv.handler(op, sv.req[:reqLen], sv.resp)
		if respLen > PayloadMax {
			panic("delegation: handler response exceeds PayloadMax")
		}
		sv.publishReply(s, seq, status, sv.resp[:respLen])
		sv.lastServed[s] = seq
		served++
	}
	return served
}

// Request is one pending delegated operation observed by CollectOnce,
// not yet executed or replied to. Payload is a private copy.
type Request struct {
	Slot    int
	Op      uint32
	Seq     uint64
	Payload []byte
}

// CollectOnce sweeps every slot once and appends the pending requests to
// reqs WITHOUT executing them, returning the extended slice. It is the
// gathering half of a combining server: the owner collects a whole sweep's
// requests, coalesces them (one data-structure operation for N requests on
// the same key), and answers each with Reply or ReplyDeferred +
// FlushReplies. Every collected request MUST eventually get a reply; its
// client slot stays blocked until then.
func (sv *Server) CollectOnce(reqs []Request) []Request {
	sv.FlushReplies() // deferred replies must be home before a new sweep
	sv.scanSeqs()
	pending := 0
	for s := 0; s < sv.d.slots; s++ {
		if binary.LittleEndian.Uint64(sv.seqBuf[s*8:]) != sv.lastServed[s] {
			pending++
		}
	}
	if pending == 0 {
		return reqs
	}
	// Dense sweeps fetch the WHOLE request region as one pipelined burst
	// and parse host-side; sparse sweeps fetch per slot. A per-slot fetch
	// is a full line round trip while the bulk fetch streams the region's
	// lines at the pipelined per-line rate (~1/30 of a round trip), so
	// bulk wins once more than ~a sixteenth of the slots are pending.
	bulk := pending*16 > sv.d.slots
	if bulk {
		sv.node.InvalidateRange(sv.d.reqBase, uint64(len(sv.reqBuf)))
		sv.node.Read(sv.d.reqBase, sv.reqBuf)
	}
	for s := 0; s < sv.d.slots; s++ {
		seq := binary.LittleEndian.Uint64(sv.seqBuf[s*8:])
		if seq == sv.lastServed[s] {
			continue
		}
		var op uint32
		var reqLen int
		var pay []byte
		if bulk {
			line := sv.reqBuf[s*reqSlotSize:]
			meta := binary.LittleEndian.Uint64(line)
			op = uint32(meta >> 32)
			reqLen = int(uint32(meta))
			pay = make([]byte, reqLen)
			inl := copy(pay, line[8:8+minInt(reqLen, reqInlineMax)])
			if reqLen > reqInlineMax {
				copy(pay[inl:], line[fabric.LineSize:])
			}
		} else {
			op, reqLen = sv.readRequest(s, sv.req)
			pay = make([]byte, reqLen)
			copy(pay, sv.req[:reqLen])
		}
		sv.lastServed[s] = seq
		reqs = append(reqs, Request{Slot: s, Op: op, Seq: seq, Payload: pay})
	}
	return reqs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Reply publishes one response for a request collected by CollectOnce,
// immediately: the ServeOnce publication protocol.
func (sv *Server) Reply(slot int, seq uint64, status uint32, resp []byte) {
	if len(resp) > PayloadMax {
		panic("delegation: reply exceeds PayloadMax")
	}
	sv.publishReply(slot, seq, status, resp)
}

// ReplyDeferred stages one response with plain stores and NO write-back;
// the caller publishes a whole sweep's staged replies with one
// FlushReplies burst. Each inline reply occupies exactly one
// self-contained line (sequence word included), so the batched burst
// publishes each reply whole no matter how the lines interleave —
// per-reply ordering machinery buys nothing, and a combining sweep
// amortizes one burst over its whole fan-in. A reply too large to stage
// inline falls back to the immediate ordered publish.
func (sv *Server) ReplyDeferred(slot int, seq uint64, status uint32, resp []byte) {
	if len(resp) > PayloadMax {
		panic("delegation: reply exceeds PayloadMax")
	}
	if len(resp) > rspInlineMax {
		sv.publishReply(slot, seq, status, resp)
		return
	}
	sv.writeReplyLine(slot, seq, status, resp)
	sv.deferred = true
}

// FlushReplies pushes every reply staged by ReplyDeferred home in one
// write-back burst over the response region (only dirty lines pay). No-op
// if nothing is staged.
func (sv *Server) FlushReplies() {
	if !sv.deferred {
		return
	}
	sv.deferred = false
	sv.node.WriteBackRange(sv.d.rspBase, uint64(sv.d.slots)*rspSlotSize)
}

// Serve runs the owner loop on node n, polling every slot and executing
// pending requests with handler, until Stop is called. It is the partition
// owner's dedicated "server thread" in the delegation design.
func (d *Domain) Serve(n *fabric.Node, handler Handler) {
	sv := d.Server(n, handler)
	for !d.stopped.Load() {
		if sv.ServeOnce() == 0 {
			runtime.Gosched()
		}
	}
}

// Client is one caller's exclusive binding to a slot. A Client must not be
// used concurrently from multiple goroutines (give each its own slot).
type Client struct {
	d    *Domain
	n    *fabric.Node
	slot int
	seq  uint64
}

// Client binds node n to slot (0 <= slot < Slots()).
func (d *Domain) Client(n *fabric.Node, slot int) *Client {
	if slot < 0 || slot >= d.slots {
		panic(fmt.Sprintf("delegation: slot %d out of range [0,%d)", slot, d.slots))
	}
	return &Client{d: d, n: n, slot: slot}
}

// Post publishes one operation into the client's slot without waiting:
// meta and payload go out as one plain write-back burst, then the packed
// sequence word publishes with a fabric atomic (its line is shared with
// other clients' sequence words, so a plain write-back could clobber
// theirs).
func (c *Client) Post(op uint32, req []byte) {
	if len(req) > PayloadMax {
		panic(fmt.Sprintf("delegation: request %d exceeds max %d", len(req), PayloadMax))
	}
	d, n, s := c.d, c.n, c.slot
	c.seq++
	n.Store64(d.reqMetaG(s), uint64(op)<<32|uint64(uint32(len(req))))
	inl := len(req)
	if inl > reqInlineMax {
		inl = reqInlineMax
	}
	if inl > 0 {
		n.Write(d.reqInlineG(s), req[:inl])
	}
	lines := uint64(fabric.LineSize)
	if len(req) > reqInlineMax {
		n.Write(d.reqSpillG(s), req[reqInlineMax:])
		lines = 2 * fabric.LineSize
	}
	n.WriteBackRange(d.reqMetaG(s), lines)
	n.AtomicStore64(d.reqSeqG(s), c.seq)
}

// TryComplete checks whether the posted operation's response has arrived;
// if so it copies the reply into resp and returns done=true. The response
// line is fetched fresh each poll (invalidate + plain loads). The
// sequence is the line's last word, so a fetch that observes the new
// sequence carries the matching status and payload in the same line
// snapshot; a spilled reply's sequence word is published with a fabric
// atomic only after its payload lines are home.
func (c *Client) TryComplete(resp []byte) (respLen int, status uint32, done bool) {
	d, n, s := c.d, c.n, c.slot
	n.InvalidateRange(d.rspMetaG(s), rspSlotSize)
	if n.Load64(d.rspSeqG(s)) != c.seq {
		return 0, 0, false
	}
	meta := n.Load64(d.rspMetaG(s))
	status = uint32(meta >> 32)
	respLen = int(uint32(meta))
	inl := respLen
	if inl > rspInlineMax {
		inl = rspInlineMax
	}
	if inl > 0 {
		n.Read(d.rspInlineG(s), resp[:inl])
	}
	if respLen > rspInlineMax {
		n.Read(d.rspSpillG(s), resp[inl:respLen])
	}
	return respLen, status, true
}

// Call posts one operation and spins until the owner's response arrives.
// resp (capacity >= PayloadMax) receives the reply; Call returns the reply
// length and the handler's status code.
func (c *Client) Call(op uint32, req []byte, resp []byte) (respLen int, status uint32) {
	c.Post(op, req)
	for {
		n, st, done := c.TryComplete(resp)
		if done {
			return n, st
		}
		runtime.Gosched()
	}
}

// ClientGroup is one caller's exclusive binding to a CONTIGUOUS range of
// slots, for posting several operations per sweep with batched fabric
// traffic: requests are staged with plain stores and flushed together
// (one write-back burst for the request stripe, one for the sequence
// words when the range covers whole sequence lines), and the response
// stripe is refreshed with one bulk fetch instead of a round trip per
// slot. Not safe for concurrent use.
type ClientGroup struct {
	d          *Domain
	n          *fabric.Node
	lo, count  int
	seqs       []uint64
	next       int  // slots staged or in flight since Recycle
	staged     bool // stores pending Flush
	sharedSeqs bool // sequence words share lines with other clients
	rspBuf     []byte
}

// ClientGroup binds node n to slots [lo, lo+count). For the cheapest
// flush, align lo and count to 8 (a whole packed sequence line per 8
// slots); unaligned ranges fall back to one fabric atomic per posted
// sequence word.
func (d *Domain) ClientGroup(n *fabric.Node, lo, count int) *ClientGroup {
	if lo < 0 || count <= 0 || lo+count > d.slots {
		panic(fmt.Sprintf("delegation: slot range [%d,%d) out of range [0,%d)", lo, lo+count, d.slots))
	}
	return &ClientGroup{
		d:          d,
		n:          n,
		lo:         lo,
		count:      count,
		seqs:       make([]uint64, count),
		sharedSeqs: lo%wordsPerLine != 0 || count%wordsPerLine != 0,
		rspBuf:     make([]byte, count*rspSlotSize),
	}
}

// Count returns the number of slots in the group.
func (g *ClientGroup) Count() int { return g.count }

// Free returns how many slots remain for Post before Recycle.
func (g *ClientGroup) Free() int { return g.count - g.next }

// Post stages one operation into the group's next free slot and returns
// its index within the group (pass it to TryComplete). Nothing reaches
// the owner until Flush.
func (g *ClientGroup) Post(op uint32, req []byte) int {
	if len(req) > PayloadMax {
		panic(fmt.Sprintf("delegation: request %d exceeds max %d", len(req), PayloadMax))
	}
	if g.next == g.count {
		panic("delegation: ClientGroup full; Recycle after completing a batch")
	}
	i := g.next
	g.next++
	g.seqs[i]++
	d, n, s := g.d, g.n, g.lo+i
	n.Store64(d.reqMetaG(s), uint64(op)<<32|uint64(uint32(len(req))))
	inl := len(req)
	if inl > reqInlineMax {
		inl = reqInlineMax
	}
	if inl > 0 {
		n.Write(d.reqInlineG(s), req[:inl])
	}
	if len(req) > reqInlineMax {
		n.Write(d.reqSpillG(s), req[reqInlineMax:])
	}
	g.staged = true
	return i
}

// Flush publishes every staged request: one write-back burst for the
// group's request stripe, then the sequence words — plain stores plus one
// burst when the group owns its sequence lines outright, per-word fabric
// atomics when the lines are shared. Payload lines are home before any
// sequence word advances, exactly like Client.Post.
func (g *ClientGroup) Flush() {
	if !g.staged {
		return
	}
	g.staged = false
	d, n := g.d, g.n
	n.WriteBackRange(d.reqMetaG(g.lo), uint64(g.count)*reqSlotSize)
	if g.sharedSeqs {
		for i := 0; i < g.next; i++ {
			n.AtomicStore64(d.reqSeqG(g.lo+i), g.seqs[i])
		}
		return
	}
	for i := 0; i < g.next; i++ {
		n.Store64(d.reqSeqG(g.lo+i), g.seqs[i])
	}
	n.WriteBackRange(d.reqSeqG(g.lo), uint64(g.count)*fabric.WordSize)
}

// Refresh bulk-fetches the group's response stripe: one invalidate, one
// pipelined burst. Call it before a round of TryComplete polls; each call
// observes a fresh snapshot.
func (g *ClientGroup) Refresh() {
	d, n := g.d, g.n
	n.InvalidateRange(d.rspMetaG(g.lo), uint64(g.count)*rspSlotSize)
	n.Read(d.rspMetaG(g.lo), g.rspBuf)
}

// TryComplete checks the refreshed snapshot for slot i's response; if
// present it copies the reply into resp and returns done=true. Lines in
// the snapshot were fetched in ascending order, each sequence word before
// the rest of its line, so a new sequence word is always accompanied by
// its payload (a spilled payload's lines were home before its sequence
// word was published, and its spill line sits after its sequence line in
// the burst).
func (g *ClientGroup) TryComplete(i int, resp []byte) (respLen int, status uint32, done bool) {
	if i < 0 || i >= g.next {
		panic(fmt.Sprintf("delegation: TryComplete index %d outside staged range [0,%d)", i, g.next))
	}
	line := g.rspBuf[i*rspSlotSize:]
	if binary.LittleEndian.Uint64(line[rspSeqOff:]) != g.seqs[i] {
		return 0, 0, false
	}
	meta := binary.LittleEndian.Uint64(line)
	status = uint32(meta >> 32)
	respLen = int(uint32(meta))
	inl := copy(resp[:minInt(respLen, rspInlineMax)], line[rspInlineOff:])
	if respLen > rspInlineMax {
		copy(resp[inl:respLen], line[fabric.LineSize:])
	}
	return respLen, status, true
}

// Recycle resets the group's staging cursor after a batch has fully
// completed, making all slots free for the next batch.
func (g *ClientGroup) Recycle() {
	if g.staged {
		panic("delegation: Recycle with staged, unflushed posts")
	}
	g.next = 0
}
