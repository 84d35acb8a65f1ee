package redis

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"

	"flacos/internal/fabric"
)

// The RESP path allocates only what the backend keeps: a request's bulk
// strings alias the request, a reply is written into a buffer the server
// owns, and a client decodes its replies in place in its receive buffer.
// These tests pin the allocation budgets and the ownership rules that
// make that safe.

// raceEnabled reports whether the test binary was built with -race, under
// which allocation counts are not the ones a normal build makes.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// replayConn is an in-memory Conn that answers every Send with one canned
// reply. It copies both ways, as the real transports do, and allocates
// nothing once its send buffer has grown.
type replayConn struct {
	sent  []byte
	reply []byte
}

func (c *replayConn) Send(msg []byte) error        { c.sent = append(c.sent[:0], msg...); return nil }
func (c *replayConn) Recv(buf []byte) (int, error) { return copy(buf, c.reply), nil }
func (c *replayConn) Close()                       {}

func cmd(args ...string) []byte {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return AppendCommand(nil, bs...)
}

// TestExecuteAllocs: on a warm key a command allocates nothing on either
// backend. The key aliases the request, a SET overwrites the value the
// key already holds (the Store's buffer in place, a View's image buffer),
// a GET copies the value straight into the reply, and an INCR formats its
// number into the buffer it replaces. The View's node cache is bounded
// and full before the measurement, as in TestViewAllocs.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	f := fabric.New(fabric.Config{GlobalSize: 32 << 20, Nodes: 1, CacheCapacityLines: 64, Latency: fabric.DefaultLatency()})
	view := NewRackStore(f, RackStoreConfig{ArenaBytes: 16 << 20}).Attach(f.Node(0))
	reqs := []struct {
		name string
		req  []byte
		want string // "" = not checked (INCR's reply grows)
	}{
		{"SET", cmd("SET", "key", string(make([]byte, 64))), "+OK\r\n"},
		{"GET", cmd("GET", "key"), string(AppendBulk(nil, make([]byte, 64)))},
		{"INCR", cmd("INCR", "ctr"), ""},
		{"EXPIRE", cmd("EXPIRE", "ctr", "100"), ":1\r\n"},
		{"PING", cmd("PING"), "+PONG\r\n"},
	}
	for name, b := range map[string]Backend{"Store": NewStore(), "View": view} {
		srv := NewServer(b)
		for i := 0; i < 256; i++ { // insert the keys, grow the buffers and the retirement queue
			for _, r := range reqs {
				srv.Execute(r.req)
			}
		}
		for _, r := range reqs {
			if got := string(srv.Execute(r.req)); r.want != "" && got != r.want {
				t.Fatalf("%s: Execute(%s) = %q, want %q", name, r.name, got, r.want)
			}
			if got := testing.AllocsPerRun(200, func() { srv.Execute(r.req) }); got != 0 {
				t.Errorf("%s: Execute(%s) on a warm key: %.2f allocs, want 0", name, r.name, got)
			}
		}
	}
}

// TestExecuteBatchAllocs: a pipeline of 8 SETs and 8 GETs on warm keys,
// replied into a reused buffer, allocates nothing.
func TestExecuteBatchAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	srv := NewServer(NewStore())
	val := string(make([]byte, 64))
	var batch []byte
	for i := 0; i < 8; i++ {
		key := string(rune('a' + i))
		batch = append(batch, cmd("SET", key, val)...)
		batch = append(batch, cmd("GET", key)...)
	}
	var out []byte // AllocsPerRun's warm-up run inserts the keys and grows out
	got := testing.AllocsPerRun(100, func() { out = srv.ExecuteBatch(out[:0], batch) })
	if got != 0 {
		t.Errorf("ExecuteBatch of 8 SETs and 8 GETs on warm keys: %.1f allocs, want 0", got)
	}
}

// TestClientAllocs: issuing a SET or a GET and decoding its reply
// allocates nothing on the client.
func TestClientAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	conn := &replayConn{}
	cl := NewClient(conn, 0)
	val := make([]byte, 4096)

	conn.reply = []byte("+OK\r\n")
	got := testing.AllocsPerRun(100, func() {
		if cl.SendSet("key", val) != nil || cl.FinishSet() != nil {
			t.Fatal("SET failed")
		}
	})
	if got != 0 {
		t.Errorf("SendSet+FinishSet: %.1f allocs, want 0", got)
	}

	conn.reply = AppendBulk(nil, val)
	got = testing.AllocsPerRun(100, func() {
		if cl.SendGet("key") != nil {
			t.Fatal("GET failed")
		}
		if _, ok, err := cl.FinishGet(); !ok || err != nil {
			t.Fatal("GET failed")
		}
	})
	if got != 0 {
		t.Errorf("SendGet+FinishGet: %.1f allocs, want 0", got)
	}
}

// TestFinishGetAliasesReceiveBuffer: a GET's value is documented as valid
// only until the next call on the client. Pin that it really is
// overwritten, so a hidden copy does not creep back in.
func TestFinishGetAliasesReceiveBuffer(t *testing.T) {
	conn := &replayConn{reply: AppendBulk(nil, []byte("first"))}
	cl := NewClient(conn, 0)
	get := func() []byte {
		if err := cl.SendGet("k"); err != nil {
			t.Fatal(err)
		}
		v, ok, err := cl.FinishGet()
		if !ok || err != nil {
			t.Fatalf("GET: ok=%v err=%v", ok, err)
		}
		return v
	}
	first := get()
	if string(first) != "first" {
		t.Fatalf("GET = %q, want first", first)
	}
	conn.reply = AppendBulk(nil, []byte("second"))
	second := get()
	if string(second) != "second" || bytes.Equal(first, []byte("first")) {
		t.Fatalf("after the next GET the first value reads %q (second %q): FinishGet no longer decodes in place", first, second)
	}
}

// TestViewAllocs: a warmed View reads entries into its own buffer, builds
// them in its own image, formats INCRBY's number into its own array and
// retires replaced blocks as values, so GET, SET of an existing key,
// INCRBY and DEL of a live key allocate nothing — epoch ticks included.
// The node cache is bounded, as the benchmark's is, and small enough to
// be full before the measurement: until then it allocates a line object
// for every line it has never held.
func TestViewAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	f := fabric.New(fabric.Config{GlobalSize: 32 << 20, Nodes: 1, CacheCapacityLines: 64, Latency: fabric.DefaultLatency()})
	v := NewRackStore(f, RackStoreConfig{ArenaBytes: 16 << 20}).Attach(f.Node(0))
	val := bytes.Repeat([]byte{'v'}, 64)
	ops := []struct {
		name string
		fn   func()
	}{
		{"SET", func() {
			if err := v.Set("k", val, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"GET", func() {
			if _, ok := v.Get("k"); !ok {
				t.Fatal("GET missed")
			}
		}},
		{"INCRBY", func() {
			if _, err := v.IncrBy("n", 1<<40); err != nil {
				t.Fatal(err)
			}
		}},
		{"DEL", func() {
			v.Set("d", val, 0) // live again, so the DEL publishes a marker
			if v.Del("d") != 1 {
				t.Fatal("DEL found nothing")
			}
		}},
	}
	for i := 0; i < 256; i++ { // grow the buffers and the retirement queue
		for _, op := range ops {
			op.fn()
		}
	}
	for _, op := range ops {
		if got := testing.AllocsPerRun(500, op.fn); got != 0 {
			t.Errorf("%s: %.2f allocs per op, want 0", op.name, got)
		}
	}
}

// TestViewGetAliasesReadBuffer pins the View's read contract: Get's value
// aliases the View's read buffer and the next call overwrites it (so a
// hidden copy does not creep back in), while MGet's values are the
// caller's own and do not alias one another.
func TestViewGetAliasesReadBuffer(t *testing.T) {
	_, rs := newTestRackStore(t, 1, RackStoreConfig{})
	v := rs.Attach(rs.fab.Node(0))
	for _, kv := range [][2]string{{"a", "first"}, {"b", "other"}} {
		if err := v.Set(kv[0], []byte(kv[1]), 0); err != nil {
			t.Fatal(err)
		}
	}
	first, ok := v.Get("a")
	if !ok || string(first) != "first" {
		t.Fatalf("Get(a) = %q, %v", first, ok)
	}
	if second, _ := v.Get("b"); string(second) != "other" || string(first) != "other" {
		t.Fatalf("after Get(b) = %q the first value reads %q: Get no longer returns the read buffer", second, first)
	}
	vals := v.MGet("a", "b")
	if string(vals[0]) != "first" || string(vals[1]) != "other" {
		t.Fatalf("MGet = %q", vals)
	}
	vals[0][0] = 'X'
	v.Get("a")
	if string(vals[1]) != "other" {
		t.Fatalf("MGet's values alias each other or the read buffer: %q", vals)
	}
	if got, _ := v.Get("a"); string(got) != "first" {
		t.Fatalf("writing into MGet's value reached the store: Get(a) = %q", got)
	}
}

// scribble overwrites a request the server has finished with, as the
// transport's next receive does.
func scribble(req []byte) {
	for i := range req {
		req[i] = 'X'
	}
}

// TestServerKeepsItsOwnValue pins the Backend contract on both backends:
// keys and values alias the request, so a backend copies a key it keeps
// and a value it stores. Every request is scribbled over once
// it has run, and the keyspace must then still match a shadow map —
// through GET and DBSIZE on both, and key by key in the Store's map, where
// an assignment to an existing key would have stored the request's bytes
// as the key.
func TestServerKeepsItsOwnValue(t *testing.T) {
	steps := []struct {
		args []string
		set  map[string]string // keys the step writes
		del  []string          // keys the step deletes
	}{
		{[]string{"SET", "new", "v1"}, map[string]string{"new": "v1"}, nil},
		{[]string{"SET", "new", "second", "EX", "100"}, map[string]string{"new": "second"}, nil},
		{[]string{"SET", "new", "a value longer than the buffer it had"}, map[string]string{"new": "a value longer than the buffer it had"}, nil},
		{[]string{"SET", "new", "short"}, map[string]string{"new": "short"}, nil},
		{[]string{"INCR", "ctr"}, map[string]string{"ctr": "1"}, nil},
		{[]string{"INCRBY", "ctr", "41"}, map[string]string{"ctr": "42"}, nil},
		{[]string{"EXPIRE", "new", "100"}, nil, nil},
		{[]string{"EXPIRE", "ctr", "100"}, nil, nil},
		{[]string{"MSET", "a", "1", "b", "2", "new", "v3"}, map[string]string{"a": "1", "b": "2", "new": "v3"}, nil},
		{[]string{"DEL", "a", "missing"}, nil, []string{"a"}},
		{[]string{"SET", "", ""}, map[string]string{"": ""}, nil},
		{[]string{"EXPIRE", "b", "0"}, nil, []string{"b"}},
		{[]string{"SET", "a", "back"}, map[string]string{"a": "back"}, nil},
	}
	universe := []string{"new", "ctr", "a", "b", "", "missing"}
	_, rs := newTestRackStore(t, 1, RackStoreConfig{})
	for name, b := range map[string]Backend{"Store": NewStore(), "View": rs.Attach(rs.fab.Node(0))} {
		srv := NewServer(b)
		shadow := map[string]string{}
		for _, st := range steps {
			req := cmd(st.args...)
			if reply := srv.Execute(req); reply[0] == '-' {
				t.Fatalf("%s: %q = %q", name, st.args, reply)
			}
			scribble(req)
			for k, v := range st.set {
				shadow[k] = v
			}
			for _, k := range st.del {
				delete(shadow, k)
			}
			for _, k := range universe {
				want := "$-1\r\n"
				if v, ok := shadow[k]; ok {
					want = string(AppendBulk(nil, []byte(v)))
				}
				if got := string(srv.Execute(cmd("GET", k))); got != want {
					t.Fatalf("%s: after %q, GET %q = %q, want %q", name, st.args, k, got, want)
				}
			}
			if got, want := string(srv.Execute(cmd("DBSIZE"))), string(AppendInt(nil, int64(len(shadow)))); got != want {
				t.Fatalf("%s: after %q, DBSIZE = %q, want %q", name, st.args, got, want)
			}
			if s, ok := b.(*Store); ok {
				s.mu.Lock()
				for k := range s.data {
					if _, ok := shadow[k]; !ok {
						t.Errorf("%s: after %q the map holds key %q, which was never written", name, st.args, k)
					}
				}
				s.mu.Unlock()
			}
		}
	}
}

// TestConcurrentSessionsSetGet: two sessions share one server and one
// Store, each pipelining a SET and a GET of the same key. A SET overwrites
// the value in place, so a GET must copy it under the store's lock: every
// reply is one of the two written values, whole. Run it under -race.
func TestConcurrentSessionsSetGet(t *testing.T) {
	srv := NewServer(NewStore())
	vals := [2][]byte{bytes.Repeat([]byte{'a'}, 3000), bytes.Repeat([]byte{'b'}, 1000)}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := AppendCommand(cmd("GET", "k"), []byte("SET"), []byte("k"), vals[g])
			batch = append(batch, cmd("GET", "k")...)
			var out []byte
			for i := 0; i < 10000; i++ {
				out = srv.ExecuteBatch(out[:0], batch)
				for rest := out; len(rest) > 0; {
					v, n, err := Decode(rest)
					if err != nil {
						errs <- fmt.Errorf("session %d: undecodable reply %q", g, rest)
						return
					}
					rest = rest[n:]
					if v.Kind != respBulk || v.Bulk == nil {
						continue // the SET's +OK, or the first GET before any SET
					}
					if !bytes.Equal(v.Bulk, vals[0]) && !bytes.Equal(v.Bulk, vals[1]) {
						errs <- fmt.Errorf("session %d: GET returned a torn value of %d bytes", g, len(v.Bulk))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStoreSetRecyclesBuffers: SETs drawn from Fig. 4's nine-step value
// ladders (half to one and a half times 64 B and 4 KiB) over 4,096 keys
// trade their buffers through the class free lists, so after a warm-up
// fewer than one SET in twenty allocates: only a class whose live count
// climbs past what its list holds makes a buffer. A DEL of every key
// then gives every buffer back, which fills each of the ladder's class
// lists to its cap and no further.
func TestStoreSetRecyclesBuffers(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	const keys, sets = 4096, 20000
	names := make([]string, keys)
	for i := range names {
		names[i] = "key:" + strconv.Itoa(i)
	}
	for _, nominal := range []int{64, 4096} {
		ladder := make([][]byte, 9)
		for i := range ladder {
			ladder[i] = bytes.Repeat([]byte{byte('0' + i)}, nominal/2+i*nominal/8)
		}
		st := NewStore()
		r := rand.New(rand.NewPCG(uint64(nominal), 1))
		for _, k := range names {
			st.Set(k, ladder[r.IntN(len(ladder))], 0)
		}
		// AllocsPerRun's warm-up run is a first pass of SETs.
		got := testing.AllocsPerRun(1, func() {
			for i := 0; i < sets; i++ {
				st.Set(names[r.IntN(keys)], ladder[r.IntN(len(ladder))], 0)
			}
		}) / sets
		if got > 0.05 {
			t.Errorf("%d B ladder: %.4f mallocs per SET, want <= 0.05", nominal, got)
		}
		if st.Del(names...) != keys {
			t.Fatalf("%d B ladder: DEL of every key missed some", nominal)
		}
		checkStoreBuffers(t, st)
		free := st.freeLists()
		for _, v := range ladder { // every class held far more than the cap
			if c := sizeClass(len(v)); len(free[c]) != freeListCap {
				t.Errorf("%d B ladder: after DEL of every key class %d's free list holds %d buffers, want %d", nominal, c, len(free[c]), freeListCap)
			}
		}
	}
}
