package redis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/ds"
	"flacos/internal/flacdk/quiescence"
	"flacos/internal/trace"
)

// RackStore is the rack-shared Redis keyspace: keys and values live in the
// offset-addressed global arena, so EVERY node's server executes commands
// against the same dataset — the paper's headline workload (Fig. 4) served
// the way §3 intends, through coordinated OS sharing rather than a
// per-node Go heap.
//
// Layout and coherence protocol:
//
//   - The index is a flacdk/ds.HashMap mapping a salted 64-bit key hash to
//     an immutable entry block's global address and line count (entryRef),
//     so a reader fetches the whole entry it needs in one transfer.
//   - Entry blocks (header | key bytes | value bytes) come from
//     flacdk/alloc. A writer fills the block through its cache, WRITES THE
//     LINES BACK explicitly, and only then publishes the address with a
//     fabric atomic — so by the time any node can observe the pointer, the
//     bytes are in home memory. Readers invalidate the block's lines
//     before reading. No hardware coherence is assumed anywhere.
//   - A mutation pays a fabric atomic only to change shared state: the
//     index is read by the line (ds.HashMap's probe, no atomic), the probe
//     that read the key's entry keeps a handle on its index slot (ds.Slot)
//     and the publish is one CAS there, not a second walk of the index;
//     and whether the view has been fenced is learnt from the swap that
//     opens the mutation's read section (fence.go), not from a load of
//     its own. A SET of a live key is three atomics: enter, CAS, exit.
//   - Entries are never modified in place. SET/DEL/INCR publish a fresh
//     block and retire the old one through flacdk/quiescence, whose grace
//     period guarantees no reader still holds the old address when its
//     memory is reused (§3.2's multi-version + epoch reclamation).
//   - DEL publishes a "deleted" entry (a marker block still carrying the
//     key) instead of removing the index slot. A slot is therefore bound
//     to one key forever, which keeps the salted-probe protocol
//     linearizable: probes stop at the first slot bound to the key, and
//     that binding can never change underneath a concurrent operation.
//   - TTL deadlines are stored inline as absolute values of the rack's
//     SHARED virtual clock (one word in global memory), so "expired" is a
//     rack-wide deterministic fact: a key expired on node A is expired on
//     node B by construction, not by clock luck.
//
// IMPORTANT: nothing in an entry block may be a Go pointer — blocks live
// in simulated global memory addressed by fabric.GPtr offsets, and another
// node (or a restarted one) has no way to interpret a host pointer. Keys
// and values are stored as raw bytes; the index stores offsets.
type RackStore struct {
	fab   *fabric.Fabric
	index *ds.HashMap
	arena *alloc.Arena
	dom   *quiescence.Domain

	clockG fabric.GPtr // shared virtual clock, ns (one word, fabric atomics only)
	liveG  fabric.GPtr // live-key count (Redis DBSIZE semantics)
	fenceG fabric.GPtr // per-node generation fence words (fabric atomics only)

	mu       sync.Mutex
	nextView int
	maxViews int
	byNode   map[int][]*View // unfenced views per node (see fence.go)
}

// RackStoreConfig sizes the shared store. Zero values get defaults sized
// for tests and CI-scale experiments.
type RackStoreConfig struct {
	// Slots is the index capacity. A slot is bound to a key forever (DEL
	// leaves a marker), so size for the number of DISTINCT keys ever
	// stored, not the live count. Default 1<<15.
	Slots uint64
	// MaxViews bounds concurrently attached views (quiescence participant
	// slots). Views are not recycled — a crashed node's replacement view
	// consumes a fresh slot — so leave headroom for reattach churn.
	// Default 128.
	MaxViews int
	// Arena optionally shares an existing allocator arena (core passes the
	// kernel object arena). Nil allocates a private one of ArenaBytes.
	Arena *alloc.Arena
	// ArenaBytes sizes the private arena when Arena is nil. Default 32 MiB.
	ArenaBytes uint64
}

func (c *RackStoreConfig) fillDefaults() {
	if c.Slots == 0 {
		c.Slots = 1 << 15
	}
	if c.MaxViews == 0 {
		c.MaxViews = 128
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 32 << 20
	}
}

// Entry block layout (all little-endian, immutable once published):
//
//	[0:4)   key length
//	[4:8)   value length, or delMarker for a deleted entry
//	[8:16)  expiry deadline in shared-virtual-clock ns (0 = no TTL)
//	[16:16+klen)        key bytes
//	[16+klen:16+klen+vlen) value bytes
const (
	entryHdrSize = 16
	delMarker    = ^uint32(0)
)

// MaxEntryBytes bounds key length + value length per entry (the allocator's
// largest size class minus the header).
const MaxEntryBytes = alloc.MaxAlloc - entryHdrSize

// maxProbeSalts bounds the salted-rehash chain walked on a full 64-bit
// hash collision between distinct keys. Chains longer than one slot need
// a 64-bit collision, two need a pair of them; running out is treated
// like index exhaustion (a sizing error), not limped through.
const maxProbeSalts = 16

// entryRef is an index value, built by newEntry: an entry block's address
// below bit refLineShift and its line count above. The largest entry is
// 1,024 lines, so a ref stays below the 2^63 the index accepts.
type entryRef uint64

const refLineShift = 48

func (r entryRef) block() fabric.GPtr { return fabric.GPtr(r & (1<<refLineShift - 1)) }
func (r entryRef) lines() uint64      { return uint64(r >> refLineShift) }

// NewRackStore lays the store out in f's global memory.
func NewRackStore(f *fabric.Fabric, cfg RackStoreConfig) *RackStore {
	if f.Size() > 1<<refLineShift {
		panic(fmt.Sprintf("redis: a %d-byte global memory has addresses an entryRef cannot hold", f.Size()))
	}
	cfg.fillDefaults()
	ar := cfg.Arena
	if ar == nil {
		ar = alloc.NewArena(f, cfg.ArenaBytes)
	}
	return &RackStore{
		fab:      f,
		index:    ds.NewHashMap(f, cfg.Slots),
		arena:    ar,
		dom:      quiescence.NewDomain(f, cfg.MaxViews),
		clockG:   f.Reserve(fabric.LineSize, fabric.LineSize),
		liveG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		fenceG:   f.Reserve(uint64(f.NumNodes())*8, fabric.LineSize),
		maxViews: cfg.MaxViews,
		byNode:   make(map[int][]*View),
	}
}

// Now reads the shared virtual clock from node n.
func (s *RackStore) Now(n *fabric.Node) uint64 { return n.AtomicLoad64(s.clockG) }

// Attach creates node n's handle on the shared store. A View is bound to
// ONE goroutine at a time (it owns a per-node allocator, which is not
// concurrency-safe, and the buffers its results point into); attach one
// per server session or client worker. Views of a crashed node must be
// abandoned: FenceView the old id from any live node and Attach a fresh
// one.
//
// A fresh attachment adopts the node's CURRENT fence level as its
// generation: new views are definitionally not zombies, so a fence
// raised against the node's previous life does not reject them.
func (s *RackStore) Attach(n *fabric.Node) *View { return s.attach(n, 0, true) }

// attach builds a view at generation gen, or at the node's fence level if
// adopt is set. The fence word is read and the view registered for
// FenceNode's sweep under ONE hold of s.mu, and FenceNode raises the word
// before it takes s.mu to sweep — so whichever of the two goes first, a
// view at a fenced generation is either swept (the sweep's hold came
// second) or sees the raised word here (its own hold came second) and is
// fenced on the spot, the way the sweep would have. There is no third
// order.
func (s *RackStore) attach(n *fabric.Node, gen uint64, adopt bool) *View {
	s.mu.Lock()
	defer s.mu.Unlock() // n may crash under any fabric operation below
	id := s.nextView
	if id >= s.maxViews {
		panic(fmt.Sprintf("redis: RackStore view capacity exhausted (%d); size RackStoreConfig.MaxViews for attach churn", s.maxViews))
	}
	s.nextView++
	level := n.AtomicLoad64(s.fenceSlotG(n.ID()))
	if adopt {
		gen = level
	}
	v := &View{
		s:   s,
		n:   n,
		na:  s.arena.NodeAllocator(n, 0),
		p:   s.dom.Participant(n, id),
		id:  id,
		gen: gen,
	}
	if gen < level {
		s.dom.Fence(n, id) // a generation the rack has already fenced: born a zombie
	} else {
		s.byNode[n.ID()] = append(s.byNode[n.ID()], v)
	}
	return v
}

// FenceView fences a dead view's quiescence participant on its behalf,
// acting from live node n. A view that dies inside a read section would
// otherwise stall epoch advance — and with it value-block reclamation —
// rack-wide. The fenced view must never be used again (if it is, its
// writes are rejected like a zombie's).
func (s *RackStore) FenceView(n *fabric.Node, id int) { s.dom.Fence(n, id) }

// Len returns the live key count as seen from node n. Like real Redis,
// keys whose TTL has passed count until they are lazily purged by a later
// write to the same key.
func (s *RackStore) Len(n *fabric.Node) int { return int(n.AtomicLoad64(s.liveG)) }

// View is one worker's attachment to the RackStore. It implements Backend,
// so a redis.Server can execute commands directly against the shared
// dataset from any node. Not safe for concurrent use — one per goroutine.
//
// A View's steady-state ops allocate nothing: entries are read into its
// own buffer (so the value Get returns is valid until the next call on the
// View), built in its own image buffer, and retired to its allocator as
// values, not closures.
type View struct {
	s   *RackStore
	n   *fabric.Node
	na  *alloc.NodeAllocator
	p   *quiescence.Participant
	id  int
	gen uint64 // membership generation this view writes under (fence.go)
	tw  *trace.Writer

	ops  uint64
	img  []byte   // newEntry's scratch image, as large as the largest block written
	rbuf []byte   // fetch's entry bytes, as large as the largest entry read
	num  [20]byte // IncrBy's decimal result (an int64 is at most 20 characters)
}

// ID returns the view's participant slot (for FenceView after a crash).
func (v *View) ID() int { return v.id }

// Node returns the fabric node this view runs on.
func (v *View) Node() *fabric.Node { return v.n }

// SetTrace attaches a flight-recorder writer; SET and GET then emit
// begin/end spans (subsystem "redis", arg0 = key hash, arg1 = bytes).
func (v *View) SetTrace(w *trace.Writer) { v.tw = w }

// Now reads the shared virtual clock.
func (v *View) Now() uint64 { return v.s.Now(v.n) }

// tick amortizes epoch maintenance over the op stream: every 64th
// operation tries to advance the global epoch and collects any of this
// view's retired blocks whose grace period has elapsed, for one fresh read
// and one CAS.
func (v *View) tick() {
	v.ops++
	if v.ops&63 == 0 {
		v.p.Tick()
	}
}

// Barrier forces full reclamation of everything this view has retired
// (tests and teardown; not a hot-path call).
func (v *View) Barrier() { v.p.Barrier() }

// AllocStats returns this view's allocator counters (tests assert that
// replaced entries actually return to the free lists).
func (v *View) AllocStats() (allocs, frees uint64) { return v.na.Stats() }

// keyHash is FNV-1a finalized with splitmix64 — the same mixing the ds
// layer applies to slot indices, applied here to whole key strings.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return mix64(h)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slotKey derives the index key for probe step salt, avoiding the ds
// layer's two reserved values.
func slotKey(h uint64, salt int) uint64 {
	k := h
	if salt > 0 {
		k = mix64(h + uint64(salt)*0x9e3779b97f4a7c15)
	}
	if k == 0 || k == ^uint64(0) {
		k = 0x2545f4914f6cdd1d
	}
	return k
}

type entryHdr struct {
	klen, vlen uint32
	exp        uint64
}

func (h entryHdr) deleted() bool { return h.vlen == delMarker }

// liveLen returns the value length for a live entry (0 for deleted).
func (h entryHdr) liveLen() uint32 {
	if h.deleted() {
		return 0
	}
	return h.vlen
}

// fetch reads entry ref for an op on key in ONE transfer, never past the
// entry's own lines: all of them when the op returns the value, else the
// header and key alone. Entries are immutable and written back before
// their ref is published; the invalidate only drops stale lines of a
// previous tenant of the block. match reports whether the entry is bound
// to key; val is nil unless withValue, and otherwise aliases v.rbuf (a
// live value is never nil) until the next fetch.
func (v *View) fetch(ref entryRef, key string, withValue bool) (hdr entryHdr, val []byte, match bool) {
	n := ref.lines() * fabric.LineSize
	if !withValue {
		n = min(n, uint64(entryHdrSize+len(key)))
	}
	if uint64(cap(v.rbuf)) < n {
		v.rbuf = make([]byte, alloc.ClassSize(n)) // grows at most once per class
	}
	buf := v.rbuf[:n]
	ds.ReadRange(v.n, ref.block(), buf)
	hdr = entryHdr{
		klen: binary.LittleEndian.Uint32(buf[0:]),
		vlen: binary.LittleEndian.Uint32(buf[4:]),
		exp:  binary.LittleEndian.Uint64(buf[8:]),
	}
	if int(hdr.klen) != len(key) || string(buf[entryHdrSize:entryHdrSize+len(key)]) != key {
		return hdr, nil, false
	}
	if withValue {
		val = buf[entryHdrSize+len(key) : entryHdrSize+len(key)+int(hdr.liveLen())]
	}
	return hdr, val, true
}

// newEntry writes an immutable entry block and pushes its lines to home
// memory. The block is unpublished: the caller owns it until a successful
// publish (and must na.Free it directly on a lost race — no grace period
// is needed for a block no reader ever saw).
//
// The image is zero-padded to the next line boundary and written as whole
// lines: blocks are line-aligned and every size class is a multiple of the
// line size, so the padding stays inside the block, and a full-line write
// needs no write-allocate fetch of the block's partial last line. Its ref
// bounds every read to the entry's lines. The image is built in the View's
// own buffer (a View is single-goroutine and Node.Write copies).
func (v *View) newEntry(key string, value []byte, exp uint64, deleted bool) entryRef {
	total := entryHdrSize + len(key) + len(value)
	padded := int(fabric.AlignUp64(uint64(total), fabric.LineSize))
	blk := v.na.AllocUninit(uint64(total))
	if cap(v.img) < padded {
		v.img = make([]byte, alloc.ClassSize(uint64(total))) // the block's size: grows at most once per class
	}
	buf := v.img[:padded]
	clear(buf[total:])
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(key)))
	if deleted {
		binary.LittleEndian.PutUint32(buf[4:], delMarker)
	} else {
		binary.LittleEndian.PutUint32(buf[4:], uint32(len(value)))
	}
	binary.LittleEndian.PutUint64(buf[8:], exp)
	copy(buf[entryHdrSize:], key)
	copy(buf[entryHdrSize+len(key):], value)
	ds.PublishRange(v.n, blk, buf)
	return entryRef(uint64(blk) | uint64(padded/fabric.LineSize)<<refLineShift)
}

// retire schedules an unpublished-from-now block for reclamation once no
// concurrent reader can still hold its address.
func (v *View) retire(e fabric.GPtr) { v.p.RetireTo(v.na, e) }

// expired reports whether hdr's TTL deadline has passed on the shared
// clock. now is loaded lazily (most entries carry no TTL).
func (v *View) expired(hdr entryHdr) bool {
	return hdr.exp != 0 && v.Now() >= hdr.exp
}

func (v *View) addLive(delta int64) { v.n.Add64(v.s.liveG, uint64(delta)) }

// probeResult is one resolved slot for a key.
type probeResult struct {
	sk   uint64   // index key of the slot bound to key
	slot ds.Slot  // handle on that slot, for the publishing CAS (zero if absent)
	ref  entryRef // current entry's ref (0 if the slot is absent)
	hdr  entryHdr
	val  []byte // the entry's value bytes, if the probe asked for them
}

// live reports whether the probed entry holds a value a read may return.
func (v *View) live(pr probeResult) bool {
	return pr.ref != 0 && !pr.hdr.deleted() && !v.expired(pr.hdr)
}

// probe walks the salted-hash chain until it finds the slot bound to key
// or the first absent slot (ref 0: the key has never been stored; sk
// is where an insert would bind it). withValue says whether the op returns
// the value (GET, MGET, INCRBY, EXPIRE) or needs the key's binding alone
// (EXISTS, DEL, SET's probe). Must run inside a read section.
func (v *View) probe(key string, withValue bool) probeResult {
	h := keyHash(key)
	for salt := 0; salt < maxProbeSalts; salt++ {
		sk := slotKey(h, salt)
		slot, ev, ok := v.s.index.Find(v.n, sk)
		if !ok {
			return probeResult{sk: sk}
		}
		if hdr, val, match := v.fetch(entryRef(ev), key, withValue); match {
			return probeResult{sk: sk, slot: slot, ref: entryRef(ev), hdr: hdr, val: val}
		}
	}
	panic(fmt.Sprintf("redis: RackStore salted-probe chain exhausted for key %q (%d 64-bit hash collisions?!); size Slots up", key, maxProbeSalts))
}

// displaced returns the header of entry old, which an ExchangeAt on pr's
// slot just displaced: the probed header when old IS the probed entry
// (same section, so same ref means same immutable block), a fresh fetch
// of its header alone (the empty key's bytes) when a concurrent writer
// published in between.
func (v *View) displaced(pr probeResult, old entryRef) entryHdr {
	if old == pr.ref {
		return pr.hdr
	}
	hdr, _, _ := v.fetch(old, "", false)
	return hdr
}

// checkSizes validates an entry's payload against the allocator's largest
// size class.
func checkSizes(key string, value []byte) error {
	if len(key)+len(value) > MaxEntryBytes {
		return fmt.Errorf("redis: key+value %d bytes exceeds the rack store's %d-byte entry limit", len(key)+len(value), MaxEntryBytes)
	}
	return nil
}

// Set stores key -> value with an optional TTL (0 means no expiry),
// visible to every node's view as soon as it returns.
func (v *View) Set(key string, value []byte, ttl time.Duration) error {
	if err := checkSizes(key, value); err != nil {
		return err
	}
	if v.tw != nil {
		h := keyHash(key)
		v.tw.Begin(trace.SubRedis, trace.KSet, h, uint64(len(value)))
		defer v.tw.End(trace.SubRedis, trace.KSet, h, uint64(len(value)))
	}
	exp := uint64(0)
	if ttl > 0 {
		exp = v.Now() + uint64(ttl.Nanoseconds())
	}
	ref := v.newEntry(key, value, exp, false)
	prev, prevDeleted, err := v.publish(key, ref)
	if err != nil {
		v.na.Free(ref.block()) // never published: no reader saw it, no grace period needed
		return err
	}
	if prev != 0 {
		v.retire(prev.block())
	}
	if prev == 0 || prevDeleted {
		v.addLive(1)
	}
	v.tick()
	return nil
}

// publish installs ref as key's entry, returning the displaced entry's ref
// (0 on a fresh insert) and whether it was a deleted marker. A bound key is
// replaced with one CAS at the slot the probe found; every racing publish
// receives a distinct previous entry (ds.HashMap.Exchange's contract), so
// each old block is retired exactly once. A fenced view installs nothing
// and gets ErrFenced; ref is then still the caller's.
func (v *View) publish(key string, ref entryRef) (prev entryRef, prevDeleted bool, err error) {
	if !v.enterWrite() {
		return 0, false, ErrFenced
	}
	defer v.p.Exit()
	for {
		pr := v.probe(key, false)
		if pr.ref == 0 {
			if _, inserted := v.s.index.PutIfAbsent(v.n, pr.sk, uint64(ref)); inserted {
				return 0, false, nil
			}
			continue // lost the bind race; re-probe (the winner may be another key)
		}
		old, existed := v.s.index.ExchangeAt(v.n, pr.slot, uint64(ref))
		if !existed {
			continue
		}
		// The displaced entry may differ from the probed one (a concurrent
		// writer published in between), but slot binding is permanent, so
		// it is OUR key's entry and we own retiring it.
		return entryRef(old), v.displaced(pr, entryRef(old)).deleted(), nil
	}
}

// Get returns the value for key. A key whose TTL deadline has passed on
// the shared clock is a miss on every node, deterministically. The value
// aliases the View's read buffer and is valid until the next call on this
// View; copy it to keep it.
func (v *View) Get(key string) ([]byte, bool) {
	var (
		val []byte
		ok  bool
	)
	if v.tw != nil {
		h := keyHash(key)
		v.tw.Begin(trace.SubRedis, trace.KGet, h, 0)
		defer func() { v.tw.End(trace.SubRedis, trace.KGet, h, uint64(len(val))) }()
	}
	v.p.Enter()
	if pr := v.probe(key, true); v.live(pr) {
		val, ok = pr.val, true
	}
	v.p.Exit()
	v.tick()
	return val, ok
}

// AppendGet appends the reply to a GET of key to dst, copying Get's value
// out of the View's read buffer: nil, the null bulk, only on a miss.
func (v *View) AppendGet(dst []byte, key string) []byte {
	val, _ := v.Get(key)
	return AppendBulk(dst, val)
}

// MGet returns the values for keys in order (nil = miss), resolving the
// whole batch inside ONE quiescence read section and one epoch tick — the
// per-op overhead a pipelined client pays N times through Get is paid
// once, which is what makes MGET cheaper than N GETs on the rack store.
// Each value is the caller's own copy: the batch's probes share the
// View's read buffer.
func (v *View) MGet(keys ...string) [][]byte {
	vals := make([][]byte, len(keys))
	v.p.Enter()
	for i, key := range keys {
		if pr := v.probe(key, true); v.live(pr) {
			vals[i] = bytes.Clone(pr.val)
		}
	}
	v.p.Exit()
	v.tick()
	return vals
}

// Exists reports how many of the keys exist (live and unexpired).
func (v *View) Exists(keys ...string) int {
	n := 0
	v.p.Enter()
	for _, key := range keys {
		if v.live(v.probe(key, false)) {
			n++
		}
	}
	v.p.Exit()
	v.tick()
	return n
}

// Del removes keys, returning how many existed (live and unexpired).
func (v *View) Del(keys ...string) int {
	ndel := 0
	for _, key := range keys {
		if v.del1(key) {
			ndel++
		}
	}
	return ndel
}

func (v *View) del1(key string) bool {
	if !v.enterWrite() {
		// Del's counting signature has no error channel; a fenced delete
		// simply does not happen (and reports the key untouched).
		return false
	}
	pr := v.probe(key, false)
	if pr.ref == 0 || pr.hdr.deleted() {
		v.p.Exit()
		v.tick()
		return false
	}
	// The key is (or recently was) live: publish a deleted marker. The
	// marker keeps the slot's key binding intact — mandatory for probe
	// linearizability — at the cost of one small block per deleted key.
	dref := v.newEntry(key, nil, 0, true)
	old, existed := v.s.index.ExchangeAt(v.n, pr.slot, uint64(dref))
	v.p.Exit()
	if !existed {
		// Unreachable once a slot is bound (bindings are permanent), but
		// reclaim the marker rather than leak it.
		v.na.Free(dref.block())
		v.tick()
		return false
	}
	ohdr := v.displaced(pr, entryRef(old))
	wasLive := !ohdr.deleted()
	wasUnexpired := wasLive && !v.expired(ohdr)
	v.retire(entryRef(old).block())
	if wasLive {
		v.addLive(-1)
	}
	v.tick()
	return wasUnexpired
}

// Incr atomically increments the integer stored at key, returning the new
// value; missing (or expired) keys start at 0. The TTL of a live key is
// preserved, like real Redis.
func (v *View) Incr(key string) (int64, error) { return v.IncrBy(key, 1) }

// IncrBy atomically adds delta to the integer stored at key, returning
// the new value (ErrOverflow, publishing nothing, if the sum does not fit
// in an int64). One IncrBy publishes ONE fresh entry block however large
// delta is — it is the combining primitive: an owner that has gathered N
// delegated increments applies them with a single probe/alloc/publish
// round instead of N contended ones.
func (v *View) IncrBy(key string, delta int64) (int64, error) {
	for {
		if !v.enterWrite() {
			return 0, ErrFenced
		}
		pr := v.probe(key, true)
		cur := int64(0)
		exp := uint64(0)
		if v.live(pr) {
			parsed, err := strconv.ParseInt(string(pr.val), 10, 64)
			if err != nil {
				v.p.Exit()
				v.tick()
				return 0, err
			}
			cur = parsed
			exp = pr.hdr.exp
		}
		next, err := addInt64(cur, delta)
		if err != nil {
			v.p.Exit()
			v.tick()
			return 0, err
		}
		nref := v.newEntry(key, strconv.AppendInt(v.num[:0], next, 10), exp, false)
		if pr.ref == 0 {
			if _, inserted := v.s.index.PutIfAbsent(v.n, pr.sk, uint64(nref)); inserted {
				v.p.Exit()
				v.addLive(1)
				v.tick()
				return next, nil
			}
		} else if v.s.index.CompareAndSwapAt(v.n, pr.slot, uint64(pr.ref), uint64(nref)) {
			v.p.Exit()
			v.retire(pr.ref.block())
			if pr.hdr.deleted() {
				v.addLive(1)
			}
			v.tick()
			return next, nil
		}
		// Lost the race to a concurrent writer: our block was never
		// published, free it directly and retry against the fresh state.
		v.p.Exit()
		v.na.Free(nref.block())
	}
}

// Expire sets a fresh TTL deadline on a live key, reporting whether the
// key existed; a non-positive ttl deletes the key immediately, matching
// real Redis. Like IncrBy it republishes ONE fresh entry block — same
// value, new deadline — so a racing writer either sees the old deadline
// or the new one, never a torn mix, and the CAS loses cleanly to any
// concurrent Set.
func (v *View) Expire(key string, ttl time.Duration) bool {
	if ttl <= 0 {
		return v.del1(key)
	}
	for {
		if !v.enterWrite() {
			return false
		}
		pr := v.probe(key, true)
		if !v.live(pr) {
			v.p.Exit()
			v.tick()
			return false
		}
		nref := v.newEntry(key, pr.val, v.Now()+uint64(ttl.Nanoseconds()), false)
		if v.s.index.CompareAndSwapAt(v.n, pr.slot, uint64(pr.ref), uint64(nref)) {
			v.p.Exit()
			v.retire(pr.ref.block())
			v.tick()
			return true
		}
		// Lost to a concurrent writer: the fresh state decides whether a
		// TTL still applies — retry against it.
		v.p.Exit()
		v.na.Free(nref.block())
	}
}

// Len returns the live key count (Redis DBSIZE; expired-but-unpurged keys
// count, as in the original store).
func (v *View) Len() int { return v.s.Len(v.n) }
