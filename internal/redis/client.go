package redis

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Client issues commands over any Conn. Not safe for concurrent use (like
// a raw Redis connection); open one per worker.
type Client struct {
	conn Conn
	buf  []byte
	out  []byte

	pipe    []byte // commands queued by Pipe* since the last FlushSend
	pipeN   int
	replies []Value // FlushRecv's result, reused from call to call
}

// NewClient wraps an established connection.
func NewClient(conn Conn, bufSize int) *Client {
	if bufSize <= 0 {
		bufSize = 64 << 10
	}
	return &Client{conn: conn, buf: make([]byte, bufSize)}
}

// Close closes the underlying connection.
func (c *Client) Close() { c.conn.Close() }

// roundTrip sends one command and decodes the reply.
func (c *Client) roundTrip(args ...[]byte) (Value, error) {
	c.out = AppendCommand(c.out[:0], args...)
	if err := c.conn.Send(c.out); err != nil {
		return Value{}, err
	}
	return c.recvReply()
}

// SendSet transmits a SET without waiting for the reply. Paired with
// FinishSet, it lets deterministic harnesses interleave the server's turn
// between the two halves (and supports pipelining generally).
func (c *Client) SendSet(key string, value []byte) error {
	c.out = AppendCommand(c.out[:0], []byte("SET"), []byte(key), value)
	return c.conn.Send(c.out)
}

// FinishSet consumes a SET's reply.
func (c *Client) FinishSet() error {
	v, err := c.recvReply()
	if err != nil {
		return err
	}
	if v.Str != "OK" {
		return fmt.Errorf("redis: unexpected SET reply %q", v.Str)
	}
	return nil
}

// SendGet transmits a GET without waiting for the reply.
func (c *Client) SendGet(key string) error {
	c.out = AppendCommand(c.out[:0], []byte("GET"), []byte(key))
	return c.conn.Send(c.out)
}

// FinishGet consumes a GET's reply. The value aliases the client's
// receive buffer: it is valid until the next call on the client.
func (c *Client) FinishGet() ([]byte, bool, error) {
	v, err := c.recvReply()
	if err != nil {
		return nil, false, err
	}
	if v.Bulk == nil {
		return nil, false, nil
	}
	return v.Bulk, true, nil
}

// recvReply receives one reply and decodes it in place in c.buf.
func (c *Client) recvReply() (Value, error) {
	n, err := c.conn.Recv(c.buf)
	if err != nil {
		return Value{}, err
	}
	v, _, err := Decode(c.buf[:n])
	if err != nil {
		return Value{}, err
	}
	if v.Kind == respError {
		return Value{}, errors.New(v.Str)
	}
	return v, nil
}

// PipeCommand queues one command without sending it. FlushSend transmits
// the whole queue as ONE message and FlushRecv collects the replies in
// order — one transport round trip for N commands, which is how the
// rack-shared serving experiments amortize fabric latency (the server
// executes the batch with ExecuteBatch).
func (c *Client) PipeCommand(args ...[]byte) {
	c.pipe = AppendCommand(c.pipe, args...)
	c.pipeN++
}

// ttlSeconds formats a positive ttl as SET's EX argument, rounded up to
// whole seconds: a sub-second TTL still expires rather than becoming the
// EX 0 the server rejects.
func ttlSeconds(ttl time.Duration) []byte {
	secs := ttl / time.Second
	if ttl%time.Second != 0 {
		secs++
	}
	return strconv.AppendInt(nil, int64(secs), 10)
}

// PipeSet queues a SET with no expiry.
func (c *Client) PipeSet(key string, value []byte) {
	c.PipeCommand([]byte("SET"), []byte(key), value)
}

// PipeGet queues a GET.
func (c *Client) PipeGet(key string) { c.PipeCommand([]byte("GET"), []byte(key)) }

// FlushSend transmits the queued pipeline without waiting for replies,
// returning how many commands were sent. Deterministic harnesses use the
// FlushSend/FlushRecv split to run the server's turn in between.
func (c *Client) FlushSend() (int, error) {
	n := c.pipeN
	if n == 0 {
		return 0, nil
	}
	err := c.conn.Send(c.pipe)
	c.pipe = c.pipe[:0]
	c.pipeN = 0
	if err != nil {
		return 0, err
	}
	return n, nil
}

// FlushRecv receives one batched reply message and decodes exactly n
// replies from it. A command's error is a respError Value; the Values
// alias the client's buffers until its next call.
func (c *Client) FlushRecv(n int) ([]Value, error) {
	if n == 0 {
		return nil, nil
	}
	got, err := c.conn.Recv(c.buf)
	if err != nil {
		return nil, err
	}
	c.replies = c.replies[:0]
	rest := c.buf[:got]
	for len(rest) > 0 {
		v, used, err := Decode(rest)
		if err != nil {
			return nil, err
		}
		c.replies = append(c.replies, v)
		rest = rest[used:]
	}
	if len(c.replies) != n {
		return nil, fmt.Errorf("redis: pipeline sent %d commands, got %d replies", n, len(c.replies))
	}
	return c.replies, nil
}

// Set stores key -> value with optional TTL (0 = none), rounded up to whole
// seconds.
func (c *Client) Set(key string, value []byte, ttl time.Duration) error {
	args := [][]byte{[]byte("SET"), []byte(key), value}
	if ttl > 0 {
		args = append(args, []byte("EX"), ttlSeconds(ttl))
	}
	v, err := c.roundTrip(args...)
	if err != nil {
		return err
	}
	if v.Str != "OK" {
		return fmt.Errorf("redis: unexpected SET reply %q", v.Str)
	}
	return nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int64, error) {
	args := [][]byte{[]byte("DEL")}
	for _, k := range keys {
		args = append(args, []byte(k))
	}
	v, err := c.roundTrip(args...)
	return v.Int, err
}

// Incr increments the integer at key.
func (c *Client) Incr(key string) (int64, error) {
	v, err := c.roundTrip([]byte("INCR"), []byte(key))
	return v.Int, err
}

// IncrBy adds delta to the integer at key.
func (c *Client) IncrBy(key string, delta int64) (int64, error) {
	v, err := c.roundTrip([]byte("INCRBY"), []byte(key),
		[]byte(strconv.FormatInt(delta, 10)))
	return v.Int, err
}

// MGet fetches keys in one round trip (nil = miss). The values alias the
// client's receive buffer: they are valid until the next call on the
// client.
func (c *Client) MGet(keys ...string) ([][]byte, error) {
	args := make([][]byte, 0, len(keys)+1)
	args = append(args, []byte("MGET"))
	for _, k := range keys {
		args = append(args, []byte(k))
	}
	v, err := c.roundTrip(args...)
	if err != nil {
		return nil, err
	}
	if v.Kind != respArray {
		return nil, fmt.Errorf("redis: unexpected MGET reply kind %q", v.Kind)
	}
	vals := make([][]byte, len(v.Array))
	for i, e := range v.Array {
		vals[i] = e.Bulk
	}
	return vals, nil
}

// Exists reports how many of keys exist.
func (c *Client) Exists(keys ...string) (int64, error) {
	args := [][]byte{[]byte("EXISTS")}
	for _, k := range keys {
		args = append(args, []byte(k))
	}
	v, err := c.roundTrip(args...)
	return v.Int, err
}
