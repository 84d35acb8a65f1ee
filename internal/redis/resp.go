// Package redis is a miniature Redis used as the paper's evaluation
// workload (Figure 4): a RESP-speaking in-memory KV server and client that
// run unchanged over two transports — the simulated TCP/IP stack
// (internal/netstack, the paper's "networking" baseline) and FlacOS
// zero-copy IPC (internal/ipc). The latency gap between the two transports
// under SET/GET at different value sizes is exactly the paper's headline
// experiment.
package redis

import (
	"errors"
	"fmt"
	"strconv"
	"unsafe"
)

// RESP value kinds.
const (
	respSimple = '+'
	respError  = '-'
	respInt    = ':'
	respBulk   = '$'
	respArray  = '*'
)

// ErrProtocol reports malformed RESP input.
var ErrProtocol = errors.New("redis: protocol error")

// Value is one decoded RESP value.
type Value struct {
	Kind  byte
	Str   string  // simple string or error text
	Int   int64   // integer
	Bulk  []byte  // bulk string (nil means null bulk), aliasing the decoded input
	Array []Value // array elements
}

// IsError reports whether v is a RESP error reply.
func (v Value) IsError() bool { return v.Kind == respError }

// AppendCommand encodes a command (array of bulk strings) onto dst.
func AppendCommand(dst []byte, args ...[]byte) []byte {
	dst = append(dst, respArray)
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = AppendBulk(dst, a)
	}
	return dst
}

// AppendBulk encodes one bulk string onto dst.
func AppendBulk(dst, b []byte) []byte {
	if b == nil {
		return append(dst, '$', '-', '1', '\r', '\n')
	}
	dst = append(dst, respBulk)
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// AppendArrayHeader encodes an array header for n elements; the caller
// appends the n element encodings after it (MGET replies).
func AppendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, respArray)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

// AppendSimple encodes a simple string ("+OK\r\n").
func AppendSimple(dst []byte, s string) []byte {
	dst = append(dst, respSimple)
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendError encodes an error reply. Error text is line-framed, so any
// CR/LF smuggled in via user data (an unknown command named "A\r\nB")
// would desynchronize the whole reply stream; those bytes are replaced
// with spaces.
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, respError)
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		dst = append(dst, c)
	}
	return append(dst, '\r', '\n')
}

// AppendInt encodes an integer reply.
func AppendInt(dst []byte, v int64) []byte {
	dst = append(dst, respInt)
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, '\r', '\n')
}

// Decode parses one RESP value from b, returning it and the bytes consumed.
// A decoded bulk string aliases b, so it is valid only while b is. Its
// capacity ends at its length: appending to it copies rather than writing
// over the bytes of b that follow it.
func Decode(b []byte) (Value, int, error) { return decode(b, nil) }

// bulkString returns a decoded bulk string as a string that aliases it: a
// key passed to a Backend without a copy. It is valid only while the
// decoded input is, so a backend copies a key it keeps.
func bulkString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// decodeElem is decode, called through a variable for an array's
// elements. Escape analysis merges every direct recursive call's result
// with the outer call's scratch, so storing an element would move each
// caller's stack scratch to the heap.
var decodeElem func(b []byte, scratch []Value) (Value, int, error)

func init() { decodeElem = decode }

// decode is Decode with a scratch slice: a top-level array decodes its
// elements into scratch when they fit, and into a new slice otherwise.
func decode(b []byte, scratch []Value) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("%w: empty input", ErrProtocol)
	}
	line, n, err := readLine(b[1:])
	if err != nil {
		return Value{}, 0, err
	}
	consumed := 1 + n
	switch b[0] {
	case respSimple:
		return Value{Kind: respSimple, Str: simpleString(line)}, consumed, nil
	case respError:
		return Value{Kind: respError, Str: string(line)}, consumed, nil
	case respInt:
		v, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return Value{}, 0, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		return Value{Kind: respInt, Int: v}, consumed, nil
	case respBulk:
		ln, err := strconv.Atoi(string(line))
		if err != nil {
			return Value{}, 0, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
		}
		if ln < 0 {
			return Value{Kind: respBulk, Bulk: nil}, consumed, nil
		}
		// Compare against the remaining bytes, not consumed+ln+2: an
		// attacker-supplied length near MaxInt would overflow the sum and
		// slip past the bound straight into a huge allocation.
		if ln > len(b)-consumed-2 {
			return Value{}, 0, fmt.Errorf("%w: truncated bulk", ErrProtocol)
		}
		end := consumed + ln
		if b[end] != '\r' || b[end+1] != '\n' {
			return Value{}, 0, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
		}
		return Value{Kind: respBulk, Bulk: b[consumed:end:end]}, end + 2, nil
	case respArray:
		count, err := strconv.Atoi(string(line))
		if err != nil || count < 0 {
			return Value{}, 0, fmt.Errorf("%w: bad array length %q", ErrProtocol, line)
		}
		// The smallest element ("+\r\n") is 3 bytes, so a count the input
		// cannot possibly back is rejected before allocating for it.
		if count > (len(b)-consumed)/3 {
			return Value{}, 0, fmt.Errorf("%w: truncated array", ErrProtocol)
		}
		arr := scratch[:0]
		if count > cap(scratch) {
			arr = make([]Value, 0, count)
		}
		off := consumed
		for i := 0; i < count; i++ {
			v, n, err := decodeElem(b[off:], nil)
			if err != nil {
				return Value{}, 0, err
			}
			arr = append(arr, v)
			off += n
		}
		return Value{Kind: respArray, Array: arr}, off, nil
	}
	return Value{}, 0, fmt.Errorf("%w: unknown type %q", ErrProtocol, b[0])
}

// simpleString converts a simple-string line, returning the replies of
// SET and PING without allocating.
func simpleString(line []byte) string {
	switch string(line) {
	case "OK":
		return "OK"
	case "PONG":
		return "PONG"
	}
	return string(line)
}

// readLine returns the bytes before the next CRLF and the total consumed
// including the CRLF.
func readLine(b []byte) ([]byte, int, error) {
	for i := 0; i+1 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' {
			return b[:i], i + 2, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: missing CRLF", ErrProtocol)
}
