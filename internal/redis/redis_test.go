package redis

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/netstack"
)

// --- RESP codec ---

func TestRESPRoundTrip(t *testing.T) {
	cmd := AppendCommand(nil, []byte("SET"), []byte("key"), []byte("value"))
	v, n, err := Decode(cmd)
	if err != nil || n != len(cmd) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if v.Kind != respArray || len(v.Array) != 3 || string(v.Array[0].Bulk) != "SET" {
		t.Fatalf("decoded %+v", v)
	}
	for in, check := range map[string]func(Value) bool{
		"+OK\r\n":       func(v Value) bool { return v.Kind == respSimple && v.Str == "OK" },
		"-ERR x\r\n":    func(v Value) bool { return v.Kind == respError && v.Str == "ERR x" },
		":-42\r\n":      func(v Value) bool { return v.Kind == respInt && v.Int == -42 },
		"$-1\r\n":       func(v Value) bool { return v.Kind == respBulk && v.Bulk == nil },
		"$3\r\nabc\r\n": func(v Value) bool { return string(v.Bulk) == "abc" },
		"*0\r\n":        func(v Value) bool { return v.Kind == respArray && len(v.Array) == 0 },
	} {
		v, _, err := Decode([]byte(in))
		if err != nil || !check(v) {
			t.Fatalf("decode %q: %+v, %v", in, v, err)
		}
	}
}

func TestRESPMalformed(t *testing.T) {
	for _, in := range []string{"", "x", "+OK", "$5\r\nab\r\n", ":abc\r\n", "*2\r\n+a\r\n", "$3\r\nabcXX"} {
		if _, _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) should fail", in)
		}
	}
}

func TestRESPQuickBulkRoundTrip(t *testing.T) {
	prop := func(data []byte) bool {
		enc := AppendBulk(nil, data)
		v, n, err := Decode(enc)
		return err == nil && n == len(enc) && bytes.Equal(v.Bulk, data) ||
			(data == nil && v.Bulk == nil && err == nil)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- Store ---

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Set("a", []byte("1"), 0)
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if s.Exists("a", "b") != 1 || s.Len() != 1 {
		t.Fatal("exists/len wrong")
	}
	if s.Del("a", "b") != 1 {
		t.Fatal("del wrong")
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key present")
	}
	if v, err := s.Incr("ctr"); err != nil || v != 1 {
		t.Fatalf("incr = %d,%v", v, err)
	}
	if v, _ := s.Incr("ctr"); v != 2 {
		t.Fatalf("incr = %d", v)
	}
	s.Set("notnum", []byte("xyz"), 0)
	if _, err := s.Incr("notnum"); err == nil {
		t.Fatal("incr of non-integer should fail")
	}
}

func TestStoreExpiry(t *testing.T) {
	s := NewStore()
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })
	s.Set("k", []byte("v"), 5*time.Second)
	if _, ok := s.Get("k"); !ok {
		t.Fatal("fresh key missing")
	}
	now = now.Add(6 * time.Second)
	if _, ok := s.Get("k"); ok {
		t.Fatal("expired key still present")
	}
	// SET without TTL clears a previous TTL.
	s.Set("k2", []byte("v"), time.Second)
	s.Set("k2", []byte("v"), 0)
	now = now.Add(time.Hour)
	if _, ok := s.Get("k2"); !ok {
		t.Fatal("TTL not cleared by plain SET")
	}
}

// --- Command execution ---

func TestExecuteCommands(t *testing.T) {
	srv := NewServer(NewStore())
	exec := func(args ...string) Value {
		bb := make([][]byte, len(args))
		for i, a := range args {
			bb[i] = []byte(a)
		}
		v, _, err := Decode(srv.Execute(AppendCommand(nil, bb...)))
		if err != nil {
			t.Fatalf("execute %v: %v", args, err)
		}
		return v
	}
	if v := exec("PING"); v.Str != "PONG" {
		t.Fatalf("PING = %+v", v)
	}
	if v := exec("SET", "k", "val"); v.Str != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v := exec("GET", "k"); string(v.Bulk) != "val" {
		t.Fatalf("GET = %+v", v)
	}
	if v := exec("GET", "missing"); v.Bulk != nil {
		t.Fatalf("GET missing = %+v", v)
	}
	if v := exec("DBSIZE"); v.Int != 1 {
		t.Fatalf("DBSIZE = %+v", v)
	}
	if v := exec("DEL", "k", "x"); v.Int != 1 {
		t.Fatalf("DEL = %+v", v)
	}
	if v := exec("NOSUCH"); v.Kind != respError {
		t.Fatalf("unknown command = %+v", v)
	}
	if v := exec("SET", "only-key"); v.Kind != respError {
		t.Fatalf("bad arity = %+v", v)
	}
	if v := exec("INCR", "n"); v.Int != 1 {
		t.Fatalf("INCR = %+v", v)
	}
	// Raw garbage.
	if v, _, _ := Decode(srv.Execute([]byte("garbage"))); v.Kind != respError {
		t.Fatal("garbage should produce an error reply")
	}
}

// --- End to end over both transports ---

func runIPC(t *testing.T) (*Client, func()) {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: 2})
	sb := ipc.NewSwitchboard(f, f.Node(0), ipc.Config{
		MaxConns: 4, MaxListeners: 2, RingSlots: 4, MsgMax: 64 << 10,
	})
	srvEP := sb.Endpoint(f.Node(0))
	l, err := srvEP.Bind("redis")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveConn(srv, l.Accept())
	}()
	conn, err := sb.Endpoint(f.Node(1)).Connect("redis")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn, 0)
	return cl, func() { cl.Close(); wg.Wait(); l.Close() }
}

func runTCP(t *testing.T) (*Client, func()) {
	t.Helper()
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2})
	nw := netstack.New(netstack.DefaultTCP())
	l, err := nw.Listen(f.Node(0), "10.0.0.1:6379")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		serveConn(srv, c)
	}()
	conn, err := nw.Dial(f.Node(1), "10.0.0.1:6379")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn, 0)
	return cl, func() { cl.Close(); wg.Wait(); l.Close() }
}

// serveConn runs one server session: each received message is executed
// as a batch and answered with one Send, until the connection closes.
func serveConn(srv *Server, c Conn) {
	req := make([]byte, 64<<10)
	var resp []byte
	for {
		n, err := c.Recv(req)
		if err != nil {
			return
		}
		resp = srv.ExecuteBatch(resp[:0], req[:n])
		if c.Send(resp) != nil {
			return
		}
	}
}

func exerciseClient(t *testing.T, cl *Client) {
	t.Helper()
	val := bytes.Repeat([]byte{0x42}, 4096)
	if err := cl.Set("big", val, 0); err != nil {
		t.Fatal(err)
	}
	get := func(key string) ([]byte, bool, error) {
		if err := cl.SendGet(key); err != nil {
			return nil, false, err
		}
		return cl.FinishGet()
	}
	got, ok, err := get("big")
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("GET big: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := get("missing"); ok {
		t.Fatal("missing key found")
	}
	if n, _ := cl.Incr("ctr"); n != 1 {
		t.Fatalf("incr = %d", n)
	}
	if n, _ := cl.Exists("big", "ctr", "nope"); n != 2 {
		t.Fatalf("exists = %d", n)
	}
	if n, _ := cl.Del("big"); n != 1 {
		t.Fatalf("del = %d", n)
	}
}

func TestEndToEndOverIPC(t *testing.T) {
	cl, cleanup := runIPC(t)
	defer cleanup()
	exerciseClient(t, cl)
}

func TestEndToEndOverTCP(t *testing.T) {
	cl, cleanup := runTCP(t)
	defer cleanup()
	exerciseClient(t, cl)
}

func TestStoreExpire(t *testing.T) {
	s := NewStore()
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })

	if s.Expire("missing", time.Second) {
		t.Fatal("EXPIRE on a missing key reported success")
	}
	s.Set("k", []byte("v"), 0)
	if !s.Expire("k", 5*time.Second) {
		t.Fatal("EXPIRE on a live key failed")
	}
	now = now.Add(6 * time.Second)
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survived its EXPIRE deadline")
	}
	if s.Expire("k", time.Second) {
		t.Fatal("EXPIRE on an expired key reported success")
	}
	// A later EXPIRE replaces the deadline entirely.
	s.Set("k2", []byte("v"), time.Second)
	if !s.Expire("k2", time.Hour) {
		t.Fatal("re-EXPIRE failed")
	}
	now = now.Add(time.Minute)
	if _, ok := s.Get("k2"); !ok {
		t.Fatal("extended TTL not honored")
	}
	// Non-positive ttl deletes immediately, like real Redis.
	if !s.Expire("k2", -time.Second) {
		t.Fatal("negative-ttl EXPIRE on live key failed")
	}
	if _, ok := s.Get("k2"); ok {
		t.Fatal("negative-ttl EXPIRE did not delete")
	}
}

func TestExecuteExpire(t *testing.T) {
	srv := NewServer(NewStore())
	exec := func(args ...string) Value {
		bs := make([][]byte, len(args))
		for i, a := range args {
			bs[i] = []byte(a)
		}
		out := srv.Execute(AppendCommand(nil, bs...))
		v, _, err := Decode(out)
		if err != nil {
			t.Fatalf("reply undecodable: %v", err)
		}
		return v
	}
	exec("SET", "a", "1")
	if v := exec("EXPIRE", "a", "10"); v.Kind != respInt || v.Int != 1 {
		t.Fatalf("EXPIRE live = %+v, want :1", v)
	}
	if v := exec("EXPIRE", "nope", "10"); v.Kind != respInt || v.Int != 0 {
		t.Fatalf("EXPIRE missing = %+v, want :0", v)
	}
	if v := exec("EXPIRE", "a", "zzz"); v.Kind != respError {
		t.Fatalf("EXPIRE with garbage ttl = %+v, want error", v)
	}
	if v := exec("EXPIRE", "a"); v.Kind != respError {
		t.Fatalf("EXPIRE arity = %+v, want error", v)
	}
	if v := exec("EXPIRE", "a", "9223372036854775807"); v.Str != "ERR invalid expire time in 'expire' command" {
		t.Fatalf("EXPIRE past a Duration's range = %+v, want the invalid expire time error", v)
	}
	if v := exec("EXPIRE", "a", "-1"); v.Kind != respInt || v.Int != 1 {
		t.Fatalf("EXPIRE -1 = %+v, want :1 (delete-now)", v)
	}
	if v := exec("GET", "a"); v.Kind != respBulk || v.Bulk != nil {
		t.Fatalf("GET after delete-now EXPIRE = %+v, want nil bulk", v)
	}
}

// TestExecuteSetOptions: SET honours exactly `SET k v [EX seconds]`. Any
// other option is a syntax error and a non-positive EX an invalid expire
// time, with Redis's own replies, and neither stores the value.
func TestExecuteSetOptions(t *testing.T) {
	st := NewStore()
	now := time.Unix(1000, 0)
	st.SetClock(func() time.Time { return now })
	srv := NewServer(st)
	exec := func(args ...string) string { return string(srv.Execute(cmd(args...))) }
	const (
		syntax   = "-ERR syntax error\r\n"
		badTTL   = "-ERR invalid expire time in 'set' command\r\n"
		notAnInt = "-ERR value is not an integer or out of range\r\n"
	)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"SET", "k", "v", "NX"}, syntax},
		{[]string{"SET", "k", "v", "XX"}, syntax},
		{[]string{"SET", "k", "v", "KEEPTTL"}, syntax},
		{[]string{"SET", "k", "v", "PX", "100"}, syntax},
		{[]string{"SET", "k", "v", "EX"}, syntax},
		{[]string{"SET", "k", "v", "EX", "10", "NX"}, syntax},
		{[]string{"SET", "k", "v", "EX", "0"}, badTTL},
		{[]string{"SET", "k", "v", "EX", "-5"}, badTTL},
		{[]string{"SET", "k", "v", "EX", "9223372036854775807"}, badTTL},
		{[]string{"SET", "k", "v", "EX", "ten"}, notAnInt},
	} {
		if got := exec(c.args...); got != c.want {
			t.Errorf("%q = %q, want %q", c.args, got, c.want)
		}
		if got := exec("GET", "k"); got != "$-1\r\n" {
			t.Fatalf("after %q, GET k = %q: the rejected SET stored its value", c.args, got)
		}
	}
	if got := exec("SET", "k", "v", "ex", "10"); got != "+OK\r\n" {
		t.Fatalf("SET k v ex 10 = %q", got)
	}
	now = now.Add(10 * time.Second)
	if got := exec("GET", "k"); got != "$1\r\nv\r\n" {
		t.Fatalf("GET k at its deadline = %q, want v", got)
	}
	now = now.Add(time.Second)
	if got := exec("GET", "k"); got != "$-1\r\n" {
		t.Fatalf("GET k past its EX deadline = %q, want a miss", got)
	}
}

// TestClientRoundsTTLUp: Set and PipeSet send a TTL as whole seconds
// rounded up, so a sub-second TTL is EX 1, not the EX 0 the server rejects.
func TestClientRoundsTTLUp(t *testing.T) {
	conn := &replayConn{reply: []byte("+OK\r\n")}
	cl := NewClient(conn, 0)
	sentEX := func() string {
		v, _, err := Decode(conn.sent)
		if err != nil || len(v.Array) != 5 || string(v.Array[3].Bulk) != "EX" {
			t.Fatalf("sent %q: not SET k v EX n", conn.sent)
		}
		return string(v.Array[4].Bulk)
	}
	for _, c := range []struct {
		ttl  time.Duration
		want string
	}{{time.Nanosecond, "1"}, {500 * time.Millisecond, "1"}, {time.Second, "1"}, {1500 * time.Millisecond, "2"}, {time.Hour, "3600"}} {
		if err := cl.Set("k", []byte("v"), c.ttl); err != nil {
			t.Fatal(err)
		}
		if got := sentEX(); got != c.want {
			t.Errorf("Set with ttl %v sent EX %s, want EX %s", c.ttl, got, c.want)
		}
	}

	// End to end: a sub-second TTL reaches the store as a deadline.
	st := NewStore()
	now := time.Unix(1000, 0)
	st.SetClock(func() time.Time { return now })
	srv := NewServer(st)
	if err := cl.Set("k", []byte("v"), 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if reply := srv.Execute(conn.sent); string(reply) != "+OK\r\n" {
		t.Fatalf("server rejected the client's rounded TTL: %q", reply)
	}
	now = now.Add(2 * time.Second)
	if _, ok := st.Get("k"); ok {
		t.Fatal("a key set with a sub-second TTL never expired")
	}
}

// TestIncrByOverflow: an INCRBY whose sum does not fit in an int64 fails
// with ErrOverflow and leaves the value unchanged, on both backends, and
// the server replies with Redis's overflow error.
func TestIncrByOverflow(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	cases := []struct {
		start    string // "" = missing key
		delta    int64
		want     int64
		overflow bool
	}{
		{"9223372036854775806", 1, maxI, false},
		{"9223372036854775807", 1, 0, true},
		{"1", maxI, 0, true},
		{"-1", maxI, maxI - 1, false},
		{"-9223372036854775807", -1, minI, false},
		{"-9223372036854775808", -1, 0, true},
		{"-1", minI, 0, true},
		{"0", minI, minI, false},
		{"", minI, minI, false},
		{"", maxI, maxI, false},
	}
	_, rs := newTestRackStore(t, 1, RackStoreConfig{})
	for name, b := range map[string]Backend{"Store": NewStore(), "View": rs.Attach(rs.fab.Node(0))} {
		srv := NewServer(b)
		for i, c := range cases {
			key := "ctr" + strconv.Itoa(i)
			if c.start != "" {
				if err := b.Set(key, []byte(c.start), 0); err != nil {
					t.Fatal(err)
				}
			}
			got, err := b.IncrBy(key, c.delta)
			if c.overflow != errors.Is(err, ErrOverflow) || !c.overflow && (err != nil || got != c.want) {
				t.Errorf("%s: IncrBy(%s, %d) = %d, %v; want %d, overflow %v", name, c.start, c.delta, got, err, c.want, c.overflow)
			}
			wantVal := strconv.FormatInt(c.want, 10)
			if c.overflow {
				wantVal = c.start
			}
			if reply := string(srv.Execute(cmd("GET", key))); reply != string(AppendBulk(nil, []byte(wantVal))) {
				t.Errorf("%s: after IncrBy(%s, %d) the key reads %q, want %q", name, c.start, c.delta, reply, wantVal)
			}
		}
		srv.Execute(cmd("SET", "top", "9223372036854775807"))
		for _, req := range [][]byte{cmd("INCR", "top"), cmd("INCRBY", "top", "1")} {
			if got := string(srv.Execute(req)); got != "-ERR increment or decrement would overflow\r\n" {
				t.Errorf("%s: %q = %q, want the overflow error", name, req, got)
			}
		}
	}
}
