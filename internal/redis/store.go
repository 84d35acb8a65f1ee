package redis

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrOverflow reports an INCRBY whose result does not fit in an int64;
// the stored value is left unchanged.
var ErrOverflow = errors.New("redis: increment or decrement would overflow")

// addInt64 returns cur+delta, or ErrOverflow if the sum wraps.
func addInt64(cur, delta int64) (int64, error) {
	if delta > 0 && cur > math.MaxInt64-delta || delta < 0 && cur < math.MinInt64-delta {
		return 0, ErrOverflow
	}
	return cur + delta, nil
}

// Store is the single-node keyspace: string keys to byte values with
// optional expiry, guarded by a mutex exactly like real Redis's
// single-threaded command execution (one logical executor). Its expiry
// clock is NODE-LOCAL — fine for one node, but a rack serving one
// dataset needs the shared-virtual-clock TTLs of RackStore, where
// expiry is the same event on every node.
//
// A key's entry is allocated once, when the key is inserted, and every
// later write goes through the pointer: a SET writes the value's buffer
// and never assigns into the map, whose key for an existing entry would
// otherwise become the caller's (request-aliasing) string.
//
// A value lives in a buffer of its length's size class, as real Redis
// keeps each value in one of jemalloc's size classes: 16-byte steps up
// to 64 bytes, then four classes per doubling up to maxPooledValue. A
// write whose value stays in the buffer's class overwrites it in place.
// One that changes class, a DEL and a TTL purge give the buffer back to
// its class's free list, and a buffer is allocated only when its class's
// list is empty, so steady SET traffic reuses the buffers other keys gave
// up. The lists live under the Store's mutex; each holds at most
// freeListCap buffers. A longer value gets an exact-size buffer of its
// own, overwritten in place while it fits and never recycled.
type Store struct {
	mu    sync.Mutex
	data  map[string]*entry
	free  [numClasses][][]byte
	clock func() time.Time
}

// entry is one key's value and expiry deadline (zero = no TTL).
type entry struct {
	val []byte
	exp time.Time
}

const (
	// maxPooledValue is the largest size class; numClasses counts the
	// four 16-byte classes up to 64 and four per doubling above it.
	maxPooledValue = 64 << 10
	numClasses     = 4 + 4*(16-6)
	// freeListCap bounds each class's free list. On Fig. 4's nine-step
	// ladder over 4,096 keys a class's live count wanders by a few dozen
	// buffers, so 64 keeps nearly every buffer a SET gives up.
	freeListCap = 64
)

// sizeClass returns the class of an n-byte value, or numClasses when n
// is past the largest class.
func sizeClass(n int) int {
	switch {
	case n <= 64:
		return max(n-1, 0) / 16
	case n > maxPooledValue:
		return numClasses
	}
	k := bits.Len(uint(n-1)) - 1 // 1<<k < n <= 1<<(k+1)
	return 4 + (k-6)*4 + (n-1-1<<k)>>(k-2)
}

// classSize returns the capacity of a buffer of class c, the largest
// length in it.
func classSize(c int) int {
	if c < 4 {
		return (c + 1) * 16
	}
	k := 6 + (c-4)/4
	return 1<<k + ((c-4)%4+1)<<(k-2)
}

// NewStore creates an empty keyspace.
func NewStore() *Store {
	return &Store{data: make(map[string]*entry), clock: time.Now}
}

// liveLocked returns key's entry, or nil if it is missing or its TTL has
// passed (an expired entry is purged on the way).
func (s *Store) liveLocked(key string) *entry {
	e := s.data[key]
	if e != nil && !e.exp.IsZero() && s.clock().After(e.exp) {
		s.deleteLocked(key, e)
		return nil
	}
	return e
}

// insertLocked binds a fresh entry to a copy of key, which may alias the
// caller's request. Its value is nil until the caller writes one.
func (s *Store) insertLocked(key string) *entry {
	e := &entry{}
	s.data[strings.Clone(key)] = e
	return e
}

// deleteLocked removes key's entry e and gives its buffer back.
func (s *Store) deleteLocked(key string, e *entry) {
	delete(s.data, key)
	s.releaseLocked(e.val)
}

// writeLocked copies v into e's buffer, first trading the buffer for one
// of v's class when v does not belong to the buffer's. A stored value is
// never nil, even an empty one: nil is a miss.
func (s *Store) writeLocked(e *entry, v []byte) {
	c := sizeClass(len(v))
	if e.val == nil || sizeClass(cap(e.val)) != c || cap(e.val) < len(v) {
		s.releaseLocked(e.val)
		e.val = s.takeLocked(c, len(v))
	}
	e.val = append(e.val[:0], v...)
}

// takeLocked returns an empty buffer of class c, from its free list when
// it has one, or with room for n bytes when c is past the largest class.
func (s *Store) takeLocked(c, n int) []byte {
	if c == numClasses {
		return make([]byte, 0, n)
	}
	l := s.free[c]
	if len(l) == 0 {
		return make([]byte, 0, classSize(c))
	}
	b := l[len(l)-1]
	l[len(l)-1] = nil
	s.free[c] = l[:len(l)-1]
	return b
}

// releaseLocked puts buffer b on its class's free list, unless it has no
// class or the list is full.
func (s *Store) releaseLocked(b []byte) {
	c := sizeClass(cap(b))
	if b == nil || c == numClasses || len(s.free[c]) == freeListCap {
		return
	}
	if s.free[c] == nil { // one allocation per class, not append's seven
		s.free[c] = make([][]byte, 0, freeListCap)
	}
	s.free[c] = append(s.free[c], b[:0])
}

// Set stores key -> value with an optional TTL (0 means no expiry). The
// value is copied into a buffer of its size class: the server's value
// aliases the request buffer. The error is always nil; the signature
// matches Backend, where the rack-shared implementation can reject
// oversized entries.
func (s *Store) Set(key string, value []byte, ttl time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(key)
	if e == nil {
		e = s.insertLocked(key)
	}
	s.writeLocked(e, value)
	e.exp = time.Time{}
	if ttl > 0 {
		e.exp = s.clock().Add(ttl)
	}
	return nil
}

// AppendGet appends the reply to a GET of key to dst, copying the value
// under the store's lock: a concurrent SET overwrites it in place, or
// hands its buffer to another key.
func (s *Store) AppendGet(dst []byte, key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(key)
	if e == nil {
		return AppendBulk(dst, nil)
	}
	return AppendBulk(dst, e.val)
}

// Del removes keys, returning how many existed.
func (s *Store) Del(keys ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if e := s.liveLocked(k); e != nil {
			s.deleteLocked(k, e)
			n++
		}
	}
	return n
}

// Exists reports how many of the keys exist.
func (s *Store) Exists(keys ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if s.liveLocked(k) != nil {
			n++
		}
	}
	return n
}

// MGet returns copies of the values for keys in order (nil = miss) under
// one lock acquisition, matching the rack store's batched read.
func (s *Store) MGet(keys ...string) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		if e := s.liveLocked(k); e != nil {
			vals[i] = bytes.Clone(e.val)
		}
	}
	return vals
}

// Incr atomically increments the integer stored at key, returning the new
// value; missing keys start at 0.
func (s *Store) Incr(key string) (int64, error) { return s.IncrBy(key, 1) }

// IncrBy atomically adds delta to the integer stored at key, returning
// the new value. A live key keeps its TTL. A sum that does not fit in an
// int64 returns ErrOverflow and leaves the value unchanged.
func (s *Store) IncrBy(key string, delta int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(key)
	cur := int64(0)
	if e != nil {
		parsed, err := strconv.ParseInt(string(e.val), 10, 64)
		if err != nil {
			return 0, err
		}
		cur = parsed
	}
	next, err := addInt64(cur, delta)
	if err != nil {
		return 0, err
	}
	if e == nil {
		e = s.insertLocked(key)
	}
	var num [20]byte
	s.writeLocked(e, strconv.AppendInt(num[:0], next, 10))
	return next, nil
}

// Expire sets a fresh TTL on key, reporting whether it existed. A
// non-positive ttl deletes the key immediately, as in real Redis.
func (s *Store) Expire(key string, ttl time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(key)
	if e == nil {
		return false
	}
	if ttl <= 0 {
		s.deleteLocked(key, e)
		return true
	}
	e.exp = s.clock().Add(ttl)
	return true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}
