package redis

import (
	"strconv"
	"strings"
	"time"
)

// Conn is the transport a server session or client runs over. Both
// ipc.Conn (FlacOS zero-copy IPC) and netstack.Conn (simulated TCP)
// satisfy it, which is the point: the same Redis binary, two transports.
type Conn interface {
	Send(msg []byte) error
	Recv(buf []byte) (int, error)
	Close()
}

// Backend is the keyspace a server executes against. Two implementations:
// the single-node *Store (Go map behind a mutex) and the rack-shared
// *View (the global-arena store, one view per server session, same
// dataset from every node).
type Backend interface {
	// Set must not keep value: a server passes bytes that alias its
	// request buffer, so the backend's own copy is the copy of record.
	Set(key string, value []byte, ttl time.Duration) error
	Get(key string) ([]byte, bool)
	// MGet resolves a whole key batch at once (nil = miss); the rack
	// store answers it inside one epoch section, so MGET is genuinely
	// cheaper than N GETs, not just one transport round trip.
	MGet(keys ...string) [][]byte
	Del(keys ...string) int
	Exists(keys ...string) int
	Incr(key string) (int64, error)
	// IncrBy adds delta in one published write — the primitive a
	// combining owner uses to apply a gathered increment batch.
	IncrBy(key string, delta int64) (int64, error)
	// Expire sets a fresh TTL on a live key, reporting whether it
	// existed; a non-positive ttl deletes the key immediately, matching
	// real Redis.
	Expire(key string, ttl time.Duration) bool
	Len() int
}

// Server executes commands against a Backend.
type Server struct {
	store Backend
	reply []byte // Execute's reply, reused from call to call
}

// NewServer creates a server over store.
func NewServer(store Backend) *Server { return &Server{store: store} }

// Store returns the server's keyspace.
func (s *Server) Store() Backend { return s.store }

// ServeConn runs one session: decode commands, execute, reply, until the
// connection closes. Run it in a goroutine per accepted connection. Each
// received message is executed as a BATCH: a pipelining client packs N
// commands per Send, the server drains all of them and replies with the
// concatenated replies in one Send — one transport round trip, N store
// operations, the amortization the fig4/redisrack experiments measure.
func (s *Server) ServeConn(c Conn, bufSize int) {
	if bufSize <= 0 {
		bufSize = 64 << 10
	}
	req := make([]byte, bufSize)
	var resp []byte
	for {
		n, err := c.Recv(req)
		if err != nil {
			return
		}
		resp = s.ExecuteBatch(resp[:0], req[:n])
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// Execute runs the RESP-encoded command in req (every command, if req
// packs several, as ExecuteBatch does) and returns the RESP reply. The
// reply is the server's own buffer and is valid until the next Execute on
// this server, so Execute is not safe for concurrent use; both transports
// copy on Send.
func (s *Server) Execute(req []byte) []byte {
	s.reply = s.ExecuteBatch(s.reply[:0], req)
	return s.reply
}

// ExecuteBatch runs every RESP command packed in req, appending the
// replies to out in order. A decode error poisons the remainder of the
// batch (the stream boundary is lost) but replies already produced stand.
// Its scratch lives on its own stack, so concurrent sessions may share a
// server.
func (s *Server) ExecuteBatch(out, req []byte) []byte {
	var argv [8]Value // a command of up to 8 arguments decodes without allocating
	for len(req) > 0 {
		v, n, err := decode(req, argv[:])
		if err != nil {
			return AppendError(out, "ERR protocol error")
		}
		out = s.executeValue(out, v)
		req = req[n:]
	}
	return out
}

// executeValue executes one decoded command, appending its reply to out.
func (s *Server) executeValue(out []byte, v Value) []byte {
	if v.Kind != respArray || len(v.Array) == 0 {
		return AppendError(out, "ERR protocol error")
	}
	args := v.Array
	for _, a := range args {
		if a.Kind != respBulk {
			return AppendError(out, "ERR protocol error: expected bulk string")
		}
	}
	var name [16]byte
	cmd := upperASCII(name[:0], args[0].Bulk)
	switch string(cmd) {
	case "PING":
		return AppendSimple(out, "PONG")
	case "SET":
		if len(args) < 3 {
			return AppendError(out, "ERR wrong number of arguments for 'set'")
		}
		ttl := time.Duration(0)
		if len(args) == 5 && strings.EqualFold(string(args[3].Bulk), "EX") {
			secs, err := strconv.Atoi(string(args[4].Bulk))
			if err != nil {
				return AppendError(out, "ERR invalid expire time")
			}
			ttl = time.Duration(secs) * time.Second
		}
		if err := s.store.Set(string(args[1].Bulk), args[2].Bulk, ttl); err != nil {
			return AppendError(out, "ERR "+err.Error())
		}
		return AppendSimple(out, "OK")
	case "GET":
		if len(args) != 2 {
			return AppendError(out, "ERR wrong number of arguments for 'get'")
		}
		val, ok := s.store.Get(string(args[1].Bulk))
		if !ok {
			return AppendBulk(out, nil)
		}
		return AppendBulk(out, val)
	case "MGET":
		if len(args) < 2 {
			return AppendError(out, "ERR wrong number of arguments for 'mget'")
		}
		keys := bulkKeys(args[1:])
		vals := s.store.MGet(keys...)
		out = AppendArrayHeader(out, len(vals))
		for _, v := range vals {
			out = AppendBulk(out, v)
		}
		return out
	case "MSET":
		if len(args) < 3 || len(args)%2 == 0 {
			return AppendError(out, "ERR wrong number of arguments for 'mset'")
		}
		for i := 1; i < len(args); i += 2 {
			if err := s.store.Set(string(args[i].Bulk), args[i+1].Bulk, 0); err != nil {
				return AppendError(out, "ERR "+err.Error())
			}
		}
		return AppendSimple(out, "OK")
	case "DEL":
		keys := bulkKeys(args[1:])
		return AppendInt(out, int64(s.store.Del(keys...)))
	case "EXISTS":
		keys := bulkKeys(args[1:])
		return AppendInt(out, int64(s.store.Exists(keys...)))
	case "INCR":
		if len(args) != 2 {
			return AppendError(out, "ERR wrong number of arguments for 'incr'")
		}
		v, err := s.store.Incr(string(args[1].Bulk))
		if err != nil {
			return AppendError(out, "ERR value is not an integer or out of range")
		}
		return AppendInt(out, v)
	case "INCRBY":
		if len(args) != 3 {
			return AppendError(out, "ERR wrong number of arguments for 'incrby'")
		}
		delta, err := strconv.ParseInt(string(args[2].Bulk), 10, 64)
		if err != nil {
			return AppendError(out, "ERR value is not an integer or out of range")
		}
		v, err := s.store.IncrBy(string(args[1].Bulk), delta)
		if err != nil {
			return AppendError(out, "ERR value is not an integer or out of range")
		}
		return AppendInt(out, v)
	case "EXPIRE":
		if len(args) != 3 {
			return AppendError(out, "ERR wrong number of arguments for 'expire'")
		}
		secs, err := strconv.ParseInt(string(args[2].Bulk), 10, 64)
		if err != nil {
			return AppendError(out, "ERR value is not an integer or out of range")
		}
		if s.store.Expire(string(args[1].Bulk), time.Duration(secs)*time.Second) {
			return AppendInt(out, 1)
		}
		return AppendInt(out, 0)
	case "DBSIZE":
		return AppendInt(out, int64(s.store.Len()))
	}
	return AppendError(out, "ERR unknown command '"+string(cmd)+"'")
}

// upperASCII appends b to dst with ASCII letters upper-cased, the way
// Redis matches command names.
func upperASCII(dst, b []byte) []byte {
	for _, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

func bulkKeys(args []Value) []string {
	keys := make([]string, len(args))
	for i, a := range args {
		keys[i] = string(a.Bulk)
	}
	return keys
}
