package redis

import (
	"errors"
	"math"
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
//
// Keys and values are lent, not given: a server passes key strings and
// value bytes that alias its request buffer, which the next request
// overwrites. A backend copies a key it keeps, and its own copy of a
// value is the copy of record.
type Backend interface {
	Set(key string, value []byte, ttl time.Duration) error
	// AppendGet appends the RESP reply to a GET of key (the null bulk on
	// a miss) to dst. The value is copied under the backend's own
	// synchronisation, so a concurrent SET cannot tear it.
	AppendGet(dst []byte, key string) []byte
	// MGet resolves a whole key batch at once (nil = miss); the rack
	// store answers it inside one epoch section, so MGET is genuinely
	// cheaper than N GETs, not just one transport round trip. The values
	// are the caller's own.
	MGet(keys ...string) [][]byte
	Del(keys ...string) int
	Exists(keys ...string) int
	Incr(key string) (int64, error)
	// IncrBy adds delta in one published write — the primitive a
	// combining owner uses to apply a gathered increment batch. A sum
	// that overflows an int64 returns ErrOverflow and changes nothing.
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
		switch {
		case len(args) == 3:
		case len(args) == 5 && strings.EqualFold(bulkString(args[3].Bulk), "EX"):
			secs, err := strconv.ParseInt(bulkString(args[4].Bulk), 10, 64)
			if err != nil {
				return AppendError(out, "ERR value is not an integer or out of range")
			}
			if secs <= 0 || secs > maxTTLSeconds {
				return AppendError(out, "ERR invalid expire time in 'set' command")
			}
			ttl = time.Duration(secs) * time.Second
		default:
			return AppendError(out, "ERR syntax error")
		}
		if err := s.store.Set(bulkString(args[1].Bulk), args[2].Bulk, ttl); err != nil {
			return AppendError(out, "ERR "+err.Error())
		}
		return AppendSimple(out, "OK")
	case "GET":
		if len(args) != 2 {
			return AppendError(out, "ERR wrong number of arguments for 'get'")
		}
		return s.store.AppendGet(out, bulkString(args[1].Bulk))
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
			if err := s.store.Set(bulkString(args[i].Bulk), args[i+1].Bulk, 0); err != nil {
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
		v, err := s.store.Incr(bulkString(args[1].Bulk))
		return appendIncrReply(out, v, err)
	case "INCRBY":
		if len(args) != 3 {
			return AppendError(out, "ERR wrong number of arguments for 'incrby'")
		}
		delta, err := strconv.ParseInt(bulkString(args[2].Bulk), 10, 64)
		if err != nil {
			return AppendError(out, "ERR value is not an integer or out of range")
		}
		v, err := s.store.IncrBy(bulkString(args[1].Bulk), delta)
		return appendIncrReply(out, v, err)
	case "EXPIRE":
		if len(args) != 3 {
			return AppendError(out, "ERR wrong number of arguments for 'expire'")
		}
		secs, err := strconv.ParseInt(bulkString(args[2].Bulk), 10, 64)
		if err != nil {
			return AppendError(out, "ERR value is not an integer or out of range")
		}
		if secs > maxTTLSeconds {
			return AppendError(out, "ERR invalid expire time in 'expire' command")
		}
		if s.store.Expire(bulkString(args[1].Bulk), time.Duration(max(secs, 0))*time.Second) {
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

// maxTTLSeconds is the longest TTL, in seconds, a time.Duration holds.
const maxTTLSeconds = math.MaxInt64 / int64(time.Second)

// appendIncrReply appends the reply to an INCR or INCRBY.
func appendIncrReply(out []byte, v int64, err error) []byte {
	switch {
	case errors.Is(err, ErrOverflow):
		return AppendError(out, "ERR increment or decrement would overflow")
	case err != nil:
		return AppendError(out, "ERR value is not an integer or out of range")
	}
	return AppendInt(out, v)
}

// bulkKeys returns the arguments' bulk strings as keys aliasing the request.
func bulkKeys(args []Value) []string {
	keys := make([]string, len(args))
	for i, a := range args {
		keys[i] = bulkString(a.Bulk)
	}
	return keys
}
