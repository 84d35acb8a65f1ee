package redis

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
)

func newTestRackStore(t *testing.T, nodes int, cfg RackStoreConfig) (*fabric.Fabric, *RackStore) {
	t.Helper()
	f := fabric.New(fabric.Config{
		GlobalSize: 64 << 20,
		Nodes:      nodes,
		Latency:    fabric.DefaultLatency(),
	})
	if cfg.ArenaBytes == 0 {
		cfg.ArenaBytes = 16 << 20
	}
	return f, NewRackStore(f, cfg)
}

// --- rack-shared store: cross-node visibility ---

func TestRackStoreCrossNodeSetGet(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))

	// Node 0 writes, node 1 reads — through global memory, no coherence.
	for _, size := range []int{0, 1, 7, 64, 255, 4096, 60000} {
		key := fmt.Sprintf("k%d", size)
		val := make([]byte, size)
		for i := range val {
			val[i] = byte(i * 3)
		}
		if err := a.Set(key, val, 0); err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
		got, ok := b.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("get %s from node 1: ok=%v len=%d want %d", key, ok, len(got), len(val))
		}
	}

	// Overwrite from node 1, read back from node 0.
	if err := b.Set("k64", []byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("k64"); !ok || string(got) != "fresh" {
		t.Fatalf("node 0 read after node 1 overwrite: %q ok=%v", got, ok)
	}
}

func TestRackStoreMissAndEmpty(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	v := s.Attach(f.Node(0))
	if _, ok := v.Get("nope"); ok {
		t.Fatal("get of never-set key hit")
	}
	// Empty key and empty value are both legal.
	if err := v.Set("", []byte{}, 0); err != nil {
		t.Fatal(err)
	}
	got, ok := v.Get("")
	if !ok || len(got) != 0 {
		t.Fatalf("empty key/value: got %v ok=%v", got, ok)
	}
}

func TestRackStoreOversizeRejected(t *testing.T) {
	f, s := newTestRackStore(t, 1, RackStoreConfig{})
	v := s.Attach(f.Node(0))
	if err := v.Set("big", make([]byte, MaxEntryBytes+1), 0); err == nil {
		t.Fatal("oversize Set accepted")
	}
	if err := v.Set("big", make([]byte, MaxEntryBytes-3), 0); err != nil {
		t.Fatalf("max-size Set rejected: %v", err)
	}
}

func TestRackStoreDelExistsLen(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))

	for i := 0; i < 10; i++ {
		if err := a.Set(fmt.Sprintf("d%d", i), []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Len(); n != 10 {
		t.Fatalf("Len from node 1 = %d, want 10", n)
	}
	if n := b.Exists("d0", "d5", "nope"); n != 2 {
		t.Fatalf("Exists = %d, want 2", n)
	}
	// Delete from the OTHER node; the first node must observe it.
	if n := b.Del("d0", "d1", "nope"); n != 2 {
		t.Fatalf("Del = %d, want 2", n)
	}
	if _, ok := a.Get("d0"); ok {
		t.Fatal("node 0 still sees key deleted by node 1")
	}
	if n := a.Len(); n != 8 {
		t.Fatalf("Len after del = %d, want 8", n)
	}
	// Delete of a deleted key is 0; re-SET resurrects the same slot.
	if n := a.Del("d0"); n != 0 {
		t.Fatalf("double del = %d, want 0", n)
	}
	if err := a.Set("d0", []byte("back"), 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get("d0"); !ok || string(got) != "back" {
		t.Fatalf("resurrected key: %q ok=%v", got, ok)
	}
	if n := b.Len(); n != 9 {
		t.Fatalf("Len after resurrect = %d, want 9", n)
	}
}

func TestRackStoreIncr(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	for i := int64(1); i <= 5; i++ {
		// Alternate nodes; the counter is one rack-wide integer.
		v := a
		if i%2 == 0 {
			v = b
		}
		got, err := v.Incr("ctr")
		if err != nil || got != i {
			t.Fatalf("incr %d: got %d err=%v", i, got, err)
		}
	}
	if err := a.Set("notanum", []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Incr("notanum"); err == nil {
		t.Fatal("Incr of non-integer succeeded")
	}
}

// --- TTL: the rack-wide shared-clock bugfix ---

// TestRackStoreTTLExpiryRackWide is the regression test for the
// node-local-clock bug: a key expired on node A must be expired on node
// B. The store's TTLs are deadlines on ONE shared virtual clock, so
// expiry is the same event everywhere, deterministically.
func TestRackStoreTTLExpiryRackWide(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))

	if err := a.Set("lease", []byte("v"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("keep", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*View{a, b} {
		if _, ok := v.Get("lease"); !ok {
			t.Fatal("unexpired key missing")
		}
	}
	// Advance the SHARED clock from node B; expiry must hit both nodes.
	b.AdvanceClock(11 * time.Second)
	if _, ok := a.Get("lease"); ok {
		t.Fatal("key expired on the shared clock still visible on node A")
	}
	if _, ok := b.Get("lease"); ok {
		t.Fatal("key expired on the shared clock still visible on node B")
	}
	if _, ok := b.Get("keep"); !ok {
		t.Fatal("no-TTL key expired")
	}
	// Expired keys are dead for EXISTS and DEL (DEL returns 0) too.
	if n := a.Exists("lease"); n != 0 {
		t.Fatalf("Exists on expired = %d", n)
	}
	if n := b.Del("lease"); n != 0 {
		t.Fatalf("Del on expired = %d, want 0", n)
	}
	// A fresh SET with a new TTL starts a new lease.
	if err := b.Set("lease", []byte("v2"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("lease"); !ok || string(got) != "v2" {
		t.Fatalf("re-leased key: %q ok=%v", got, ok)
	}
	// Incr preserves a live key's TTL, like real Redis.
	if err := a.Set("n", []byte("41"), 100*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Incr("n"); err != nil || got != 42 {
		t.Fatalf("incr with ttl: %d %v", got, err)
	}
	a.AdvanceClock(101 * time.Second)
	if _, ok := b.Get("n"); ok {
		t.Fatal("TTL lost across Incr: key did not expire")
	}
}

// --- reclamation: replaced blocks actually return to the allocator ---

func TestRackStoreReclaimsReplacedValues(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 1, Latency: fabric.DefaultLatency()})
	ar := alloc.NewArena(f, 16<<20)
	s := NewRackStore(f, RackStoreConfig{Arena: ar})
	v := s.Attach(f.Node(0))
	val := make([]byte, 128)
	for i := 0; i < 500; i++ {
		if err := v.Set("churn", val, 0); err != nil {
			t.Fatal(err)
		}
	}
	v.Barrier()
	allocs, frees := v.AllocStats()
	if frees == 0 {
		t.Fatalf("no replaced entry was ever freed (allocs=%d)", allocs)
	}
	// Everything but the one live entry must be back in the free lists.
	if allocs-frees > 2 {
		t.Fatalf("leak: allocs=%d frees=%d", allocs, frees)
	}
}

// --- server/client over the rack store: batch pipeline end to end ---

func TestServerPipelineOverRackStore(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	srv := NewServer(s.Attach(f.Node(0)))

	cconn, sconn := newPipePair()
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(sconn, 0) }()

	cl := NewClient(cconn, 0)
	cl.PipeSet("a", []byte("1"), 0)
	cl.PipeSet("b", []byte("2"), 0)
	cl.PipeGet("a")
	cl.PipeCommand([]byte("INCR"), []byte("n"))
	cl.PipeGet("missing")
	replies, err := cl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 5 {
		t.Fatalf("replies = %d, want 5", len(replies))
	}
	if replies[0].Str != "OK" || replies[1].Str != "OK" {
		t.Fatalf("set replies: %+v %+v", replies[0], replies[1])
	}
	if string(replies[2].Bulk) != "1" {
		t.Fatalf("pipelined get: %+v", replies[2])
	}
	if replies[3].Int != 1 {
		t.Fatalf("pipelined incr: %+v", replies[3])
	}
	if replies[4].Bulk != nil {
		t.Fatalf("pipelined miss: %+v", replies[4])
	}
	// The same dataset is visible to a second server session on the OTHER
	// node, through plain (non-pipelined) commands.
	srv2 := NewServer(s.Attach(f.Node(1)))
	if resp := srv2.Execute(AppendCommand(nil, []byte("GET"), []byte("b"))); !bytes.Contains(resp, []byte("2")) {
		t.Fatalf("node 1 server reply: %q", resp)
	}
	// An oversize SET surfaces as a RESP error, not a dropped write.
	cl.PipeSet("big", make([]byte, MaxEntryBytes+1), 0)
	replies, err = cl.Flush()
	if err != nil || len(replies) != 1 {
		t.Fatalf("oversize flush: %v (%d replies)", err, len(replies))
	}
	if !replies[0].IsError() {
		t.Fatalf("oversize SET reply: %+v", replies[0])
	}
	cconn.Close()
	<-done
}

// newPipePair returns two in-memory Conn halves (host-side, for protocol
// tests that don't need the fabric transport).
func newPipePair() (*pipeConn, *pipeConn) {
	ab, ba := make(chan []byte, 16), make(chan []byte, 16)
	return &pipeConn{send: ab, recv: ba}, &pipeConn{send: ba, recv: ab}
}

type pipeConn struct {
	send, recv chan []byte
}

func (p *pipeConn) Send(msg []byte) error {
	cp := append([]byte(nil), msg...)
	defer func() { recover() }() // closed peer
	p.send <- cp
	return nil
}

func (p *pipeConn) Recv(buf []byte) (int, error) {
	msg, ok := <-p.recv
	if !ok {
		return 0, fmt.Errorf("closed")
	}
	return copy(buf, msg), nil
}

func (p *pipeConn) Close() { close(p.send) }

// TestRackStoreExpire: EXPIRE republishes the entry with a new deadline
// on the SHARED virtual clock, so the lease is the same event on every
// node; negative ttl is delete-now; dead keys refuse a new lease.
func TestRackStoreExpire(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))

	if a.Expire("missing", time.Second) {
		t.Fatal("EXPIRE on a missing key reported success")
	}
	if err := a.Set("lease", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	// Node B sets the lease node A wrote; the value must survive the
	// republish byte for byte.
	if !b.Expire("lease", 10*time.Second) {
		t.Fatal("EXPIRE on a live key failed")
	}
	if got, ok := a.Get("lease"); !ok || string(got) != "v" {
		t.Fatalf("value after EXPIRE = %q ok=%v", got, ok)
	}
	// Re-EXPIRE extends the deadline.
	if !a.Expire("lease", 100*time.Second) {
		t.Fatal("re-EXPIRE failed")
	}
	b.AdvanceClock(11 * time.Second)
	if _, ok := b.Get("lease"); !ok {
		t.Fatal("extended lease expired early")
	}
	a.AdvanceClock(90 * time.Second)
	for _, v := range []*View{a, b} {
		if _, ok := v.Get("lease"); ok {
			t.Fatal("lease survived its deadline")
		}
	}
	if b.Expire("lease", time.Second) {
		t.Fatal("EXPIRE revived an expired key")
	}
	// Delete-now form, cross-node visible, and DEL-consistent counting.
	if err := b.Set("tmp", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if !a.Expire("tmp", -time.Second) {
		t.Fatal("negative-ttl EXPIRE on live key failed")
	}
	if n := b.Exists("tmp"); n != 0 {
		t.Fatalf("Exists after delete-now EXPIRE = %d", n)
	}
	if a.Expire("tmp", time.Second) {
		t.Fatal("EXPIRE on a deleted key reported success")
	}
}

// --- entry fetch: one fetch per line per op ---

// TestRackStoreGetFabricBudget pins what a GET costs: for an entry of
// three lines read cold from another node, TWO fabric atomics (enter and
// exit; the index probe is a fresh line fetch, not an atomic), two
// invalidate calls (the header's line, then the lines past it), the index
// line plus three line fetches and one hit (the key's bytes in the
// header's already-fetched line) — nothing is fetched twice.
func TestRackStoreGetFabricBudget(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	key, val := "key:0000000000017", bytes.Repeat([]byte{7}, 128) // 16+17+128 = 161 B: three lines
	if err := a.Set(key, val, 0); err != nil {
		t.Fatal(err)
	}
	n, lat := f.Node(1), f.Latency()
	before := n.Stats()
	got, ok := b.Get(key)
	d := n.Stats().Delta(before)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("get: ok=%v len=%d", ok, len(got))
	}
	atomicNS, missNS := lat.AtomicNS+n.Hops()*lat.HopNS, lat.GlobalNS+n.Hops()*lat.HopNS
	// The stats count dropped lines, not invalidate calls; the exact charge
	// pins the two calls (LocalNS each). Enter and exit, the index line,
	// the header line, the two lines behind it with the key out of the
	// header's line.
	wantNS := uint64(2*atomicNS + (lat.LocalNS + missNS) + (lat.LocalNS + missNS) + (lat.LocalNS + lat.LocalNS + missNS + lat.PerLineNS))
	if d.Atomics != 2 || d.Misses != 1+3 || d.Hits != 1 || d.VirtualNS != wantNS {
		t.Fatalf("GET of a 3-line entry: %d atomics, %d line fetches, %d hits, %d sim_ns; want 2, 4 (the index line and the entry's three), 1, %d",
			d.Atomics, d.Misses, d.Hits, d.VirtualNS, wantNS)
	}
	if wantNS != 3370 {
		t.Fatalf("budget = %d sim_ns, EXPERIMENTS.md publishes 3370", wantNS)
	}
}

// TestRackStoreSetFabricBudget pins what a mutation of a live key costs,
// with the benchmark's shape (7 B key, 128 B value: a three-line entry)
// and every key at its index home slot. A SET is THREE fabric atomics —
// enter, ONE for the publish, exit; the fence is learnt from enter's swap
// and the index is read by the line — one three-line write-back and two
// line fetches (the index line, the displaced entry's header); the entry
// image goes into the cache as whole lines, so writing it fetches
// nothing; retiring the displaced block costs nothing. INCRBY is the same
// three around a one-line entry; DEL adds the live-count update.
func TestRackStoreSetFabricBudget(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a := s.Attach(f.Node(0))
	n, lat := f.Node(0), f.Latency()
	key, ctr, val := "k:12345", "c:12", bytes.Repeat([]byte{7}, 128)
	for i := 0; i < 3; i++ { // bind both keys and leave spare blocks in the allocator's reserve
		if err := a.Set(key, val, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.IncrBy(ctr, 5); err != nil {
			t.Fatal(err)
		}
	}
	atomicNS, missNS, local := lat.AtomicNS+n.Hops()*lat.HopNS, lat.GlobalNS+n.Hops()*lat.HopNS, lat.LocalNS
	// What every op below pays around its entry write: enter, the index
	// line, the header's invalidate and fetch, the key (and a counter's
	// digits) out of the fetched line, the publishing CAS, exit.
	common := 3*atomicNS + (local + missNS) + (local + missNS) + local
	ops := []struct {
		name                       string
		fn                         func() bool
		atomics, lines, writeBytes uint64 // lines of the new entry, bytes of its padded image
		wantNS                     int
	}{
		{"SET", func() bool { return a.Set(key, val, 0) == nil }, 3, 3, 192,
			common + 3*local + missNS + 2*lat.PerLineNS},
		{"INCRBY", func() bool { v, err := a.IncrBy(ctr, 5); return err == nil && v == 20 }, 3, 1, 64,
			common + local + missNS},
		{"DEL", func() bool { return a.Del(key) == 1 }, 4, 1, 64,
			common + local + missNS + atomicNS},
	}
	for _, op := range ops {
		pending := a.p.PendingRetired()
		before := n.Stats()
		ok := op.fn()
		d := n.Stats().Delta(before)
		if !ok {
			t.Fatalf("%s: wrong result", op.name)
		}
		if d.Atomics != op.atomics || d.WriteBacks != op.lines || d.Misses != 2 || d.BulkBytesWritten != op.writeBytes || d.VirtualNS != uint64(op.wantNS) {
			t.Fatalf("%s of a live key: %d atomics, %d lines written back, %d line fetches, %d B written, %d sim_ns; want %d, %d, 2, %d, %d",
				op.name, d.Atomics, d.WriteBacks, d.Misses, d.BulkBytesWritten, d.VirtualNS, op.atomics, op.lines, op.writeBytes, op.wantNS)
		}
		if got := a.p.PendingRetired(); got != pending+1 {
			t.Fatalf("%s retired %d blocks, want 1", op.name, got-pending)
		}
	}
	// The numbers EXPERIMENTS.md publishes, under the default latency model
	// one hop from home.
	if ops[0].wantNS != 4270 || ops[1].wantNS != 4030 || ops[2].wantNS != 4710 {
		t.Fatalf("budgets = %d / %d / %d sim_ns, want 4270 / 4030 / 4710", ops[0].wantNS, ops[1].wantNS, ops[2].wantNS)
	}
}

// TestRackStoreSetLosesPublishRace scripts a SET whose publishing CAS
// fails: node 1 publishes the same key after node 0's probe has read the
// index slot (the script runs on the probe's fetch of the entry header)
// and before its CAS. The SET must retry AT THE SLOT — reload the value
// word, CAS again: two more atomics, no second index fetch — and retire the
// entry it actually displaced, node 1's, exactly once; node 1 retired the
// one the probe saw.
func TestRackStoreSetLosesPublishRace(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	key := "k:12345"
	if err := a.Set(key, []byte("original"), 0); err != nil {
		t.Fatal(err)
	}
	orig, _ := s.index.Get(f.Node(0), slotKey(keyHash(key), 0))
	n := f.Node(0)
	raced := false
	n.SetOpHook(func(k fabric.OpKind, line, _ uint64) {
		if k == fabric.OpMiss && line == fabric.GPtr(orig).Line() && !raced {
			raced = true
			if err := b.Set(key, []byte("from node 1"), 0); err != nil {
				t.Error(err)
			}
		}
	})
	before := n.Stats()
	err := a.Set(key, []byte("from node 0"), 0)
	d := n.Stats().Delta(before)
	n.SetOpHook(nil)
	if err != nil || !raced {
		t.Fatalf("Set: %v, raced=%v", err, raced)
	}
	// 3 as in the budget, +2 for the reload and second CAS; the index line
	// once, and a second header fetch: the displaced entry is not the
	// probed one.
	if d.Atomics != 5 || d.Misses != 3 {
		t.Fatalf("SET that lost its first CAS: %d atomics, %d line fetches; want 5 (retry at the slot, no re-probe) and 3", d.Atomics, d.Misses)
	}
	if a.p.PendingRetired() != 1 || b.p.PendingRetired() != 1 {
		t.Fatalf("retired: node 0 %d, node 1 %d; want 1 and 1", a.p.PendingRetired(), b.p.PendingRetired())
	}
	for _, v := range []*View{a, b} {
		if got, ok := v.Get(key); !ok || string(got) != "from node 0" {
			t.Fatalf("node %d reads %q ok=%v after the race; the later publish must win", v.Node().ID(), got, ok)
		}
	}
	a.Barrier()
	b.Barrier()
	aa, af := a.AllocStats()
	ba, bf := b.AllocStats()
	if aa+ba != 3 || af+bf != 2 {
		t.Fatalf("%d blocks allocated, %d freed; want 3 and 2 (each displaced entry freed once, the current one live)", aa+ba, af+bf)
	}
}

// TestRackStoreKeyOnlyOpsSkipTheValue: EXISTS and DEL need the key's
// binding, not the value, so against a 32 KiB value they read the header
// and the key bytes and nothing else.
func TestRackStoreKeyOnlyOpsSkipTheValue(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	key := "big-value-key"
	if err := a.Set(key, make([]byte, 32<<10), 0); err != nil {
		t.Fatal(err)
	}
	n := f.Node(1)
	want := uint64(fabric.LineSize + entryHdrSize + len(key)) // the index line, then header + key
	before := n.Stats()
	if b.Exists(key) != 1 {
		t.Fatal("EXISTS missed a live key")
	}
	if d := n.Stats().Delta(before); d.BulkBytesRead != want || d.Misses != 2 {
		t.Fatalf("EXISTS read %d B in %d line fetches; want %d B (index line, header+key) in 2", d.BulkBytesRead, d.Misses, want)
	}
	// DEL also writes its marker block, so count what it READ: three
	// reads, the index line, the header, then the key.
	before = n.Stats()
	if b.Del(key) != 1 {
		t.Fatal("DEL missed a live key")
	}
	if d := n.Stats().Delta(before); d.BulkBytesRead != want || d.Loads != 3 {
		t.Fatalf("DEL read %d B in %d reads; want %d B (index line, header+key, probed header reused) in 3", d.BulkBytesRead, d.Loads, want)
	}
	if _, ok := a.Get(key); ok {
		t.Fatal("key still live after DEL")
	}
}

// TestRackStoreEntryShapesNoStaleLines reads entries of every shape the
// fetch distinguishes — ending exactly on a line boundary, fitting in the
// header's line, key straddling two lines, value starting on a boundary —
// from a second node after the block's address was reused for different
// bytes. The second node still holds the previous tenant's lines, so any
// line fetch skips its invalidate shows as stale bytes. Entries are written
// as whole lines, zero-padded: the image of every shape must stay inside
// its block — exactly filling it when the entry is as large as its size
// class — and a shorter entry reusing a block must read back exact, with
// zeros, not the previous tenant's bytes, behind it.
func TestRackStoreEntryShapesNoStaleLines(t *testing.T) {
	shapes := []struct{ klen, vlen int }{
		{8, 40},                  // 64 B: ends exactly on the header line's boundary, fills its class
		{8, 104},                 // 128 B: ends exactly on the second line's boundary, fills its class
		{16, 160},                // 192 B: three full lines
		{16, 224},                // 256 B: fills its class
		{5, 9},                   // fits inside the header's line
		{3, 0},                   // key only, empty value
		{60, 30},                 // key straddles lines 0 and 1
		{48, 64},                 // value starts exactly on a line boundary
		{70, 300},                // long key, multi-line value
		{16, MaxEntryBytes - 16}, // the largest entry: fills the largest class
	}
	for _, sh := range shapes {
		f, s := newTestRackStore(t, 2, RackStoreConfig{})
		a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
		key := string(bytes.Repeat([]byte{'k'}, sh.klen))
		mk := func(round int) []byte { return bytes.Repeat([]byte{byte('a' + round)}, sh.vlen) }
		sk := slotKey(keyHash(key), 0)
		seen := map[uint64]bool{}
		reused := false
		for round := 0; round < 8; round++ {
			want := mk(round)
			before := f.Node(0).Stats()
			if err := a.Set(key, want, 0); err != nil {
				t.Fatal(err)
			}
			total := uint64(entryHdrSize + sh.klen + sh.vlen)
			if w := f.Node(0).Stats().Delta(before).BulkBytesWritten; w != fabric.AlignUp64(total, fabric.LineSize) || w > alloc.ClassSize(total) {
				t.Fatalf("klen=%d vlen=%d: entry image of %d B for a %d B entry in a %d B block", sh.klen, sh.vlen, w, total, alloc.ClassSize(total))
			}
			e, _ := s.index.Get(f.Node(0), sk)
			reused = reused || seen[e]
			seen[e] = true
			for _, v := range []*View{b, a} {
				if got, ok := v.Get(key); !ok || !bytes.Equal(got, want) {
					t.Fatalf("klen=%d vlen=%d round %d node %d: got %q ok=%v, want %q", sh.klen, sh.vlen, round, v.Node().ID(), got, ok, want)
				}
				if v.Exists(key) != 1 {
					t.Fatalf("klen=%d vlen=%d round %d: EXISTS missed the key", sh.klen, sh.vlen, round)
				}
			}
			a.Barrier() // frees the displaced block so the next Set reuses its address
		}
		if !reused {
			t.Fatalf("klen=%d vlen=%d: no block address was ever reused; the stale-line check has no teeth", sh.klen, sh.vlen)
		}
	}

	// A 134 B entry into the block a 204 B one just left (both of the
	// 256 B class): the second node reads the exact shorter value, and home
	// memory holds zeros from the entry's end to the end of its last line.
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	key, sk := "shrinker", slotKey(keyHash("shrinker"), 0)
	long, short := bytes.Repeat([]byte{'L'}, 180), bytes.Repeat([]byte{'s'}, 110)
	a.Set(key, long, 0)
	blk, _ := s.index.Get(f.Node(0), sk)
	if got, ok := b.Get(key); !ok || !bytes.Equal(got, long) {
		t.Fatal("second node misread the long entry")
	}
	a.Set(key, long, 0) // displaces blk ...
	a.Barrier()         // ... and frees it: the next allocation of its class
	a.Set(key, short, 0)
	if e, _ := s.index.Get(f.Node(0), sk); e != blk {
		t.Fatal("the shorter entry did not reuse the longer one's block; the check has no teeth")
	}
	if got, ok := b.Get(key); !ok || !bytes.Equal(got, short) {
		t.Fatalf("second node reads %q (ok=%v) from a reused block, want the %d B value", got, ok, len(short))
	}
	end := uint64(entryHdrSize + len(key) + len(short))
	pad := make([]byte, fabric.AlignUp64(end, fabric.LineSize)-end)
	f.Node(1).InvalidateRange(fabric.GPtr(blk), 256)
	f.Node(1).Read(fabric.GPtr(blk).Add(end), pad)
	if !bytes.Equal(pad, make([]byte, len(pad))) {
		t.Fatalf("padding behind the shorter entry is not zero: % x", pad)
	}
}

// TestRackStoreSaltedChainSkipsForeignKey binds a key's first slot to a
// FOREIGN key of the same length (what a full 64-bit hash collision
// produces): every op must compare the key bytes, skip the slot, and work
// on the next salted slot, leaving the foreign entry alone.
func TestRackStoreSaltedChainSkipsForeignKey(t *testing.T) {
	f, s := newTestRackStore(t, 2, RackStoreConfig{})
	a, b := s.Attach(f.Node(0)), s.Attach(f.Node(1))
	key, foreign := "key-mine", "key-ELSE"
	sk0 := slotKey(keyHash(key), 0)
	fblk := a.newEntry(foreign, []byte("foreign-value"), 0, false)
	if _, inserted := s.index.PutIfAbsent(f.Node(0), sk0, uint64(fblk)); !inserted {
		t.Fatal("could not plant the colliding entry")
	}
	if _, ok := b.Get(key); ok {
		t.Fatal("GET matched a foreign key of the same length")
	}
	if b.Exists(key) != 0 || b.Del(key) != 0 {
		t.Fatal("EXISTS/DEL matched a foreign key of the same length")
	}
	if err := b.Set(key, []byte("mine"), 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get(key); !ok || string(got) != "mine" {
		t.Fatalf("GET after SET behind a collision: %q ok=%v", got, ok)
	}
	if e, _ := s.index.Get(f.Node(0), sk0); fabric.GPtr(e) != fblk {
		t.Fatal("SET displaced the foreign key's entry instead of binding the next salted slot")
	}
	if e, ok := s.index.Get(f.Node(0), slotKey(keyHash(key), 1)); !ok || e == 0 {
		t.Fatal("key was not bound at salt 1")
	}
	if a.Del(key) != 1 || b.Exists(key) != 0 {
		t.Fatal("DEL behind a collision did not delete the key")
	}
}
