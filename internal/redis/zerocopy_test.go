package redis

import (
	"bytes"
	"runtime/debug"
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

// TestExecuteAllocs: a SET keeps its key string and one copy of its
// value, a GET converts its key, and a PING allocates nothing.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	srv := NewServer(NewStore())
	set := cmd("SET", "key", string(make([]byte, 64)))
	get, ping := cmd("GET", "key"), cmd("PING")
	for _, c := range []struct {
		name string
		req  []byte
		max  float64
	}{{"SET", set, 2}, {"GET", get, 1}, {"PING", ping, 0}} {
		if got := testing.AllocsPerRun(100, func() { srv.Execute(c.req) }); got > c.max {
			t.Errorf("Execute(%s): %.1f allocs, want <= %.0f", c.name, got, c.max)
		}
	}
}

// TestExecuteBatchAllocs: a pipeline of 8 SETs and 8 GETs replied into a
// reused buffer costs no more than its commands' keys and values.
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
	var out []byte
	got := testing.AllocsPerRun(100, func() { out = srv.ExecuteBatch(out[:0], batch) })
	if want := float64(8*2 + 8*1); got > want {
		t.Errorf("ExecuteBatch of 8 SETs and 8 GETs: %.1f allocs, want <= %.0f", got, want)
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

// TestServerKeepsItsOwnValue: a SET's value aliases the request buffer
// on its way in, so the backend must keep a copy. Scribbling over the
// request afterwards must not reach the stored value, on either backend.
func TestServerKeepsItsOwnValue(t *testing.T) {
	f, rs := newTestRackStore(t, 1, RackStoreConfig{})
	for name, b := range map[string]Backend{"Store": NewStore(), "View": rs.Attach(f.Node(0))} {
		srv := NewServer(b)
		req := cmd("SET", "k", "original")
		if reply := srv.Execute(req); string(reply) != "+OK\r\n" {
			t.Fatalf("%s: SET reply %q", name, reply)
		}
		for i := range req {
			req[i] = 'X'
		}
		want := string(AppendBulk(nil, []byte("original")))
		if reply := srv.Execute(cmd("GET", "k")); string(reply) != want {
			t.Errorf("%s: GET after the request was overwritten = %q, want %q", name, reply, want)
		}
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
