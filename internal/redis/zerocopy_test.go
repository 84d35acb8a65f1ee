package redis

import (
	"bytes"
	"runtime/debug"
	"testing"
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
