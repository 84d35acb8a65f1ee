package redis

import (
	"bytes"
	"errors"
	"math"
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
// later write goes through the pointer: a SET overwrites the value's
// buffer in place and never assigns into the map, whose key for an
// existing entry would otherwise become the caller's (request-aliasing)
// string.
type Store struct {
	mu    sync.Mutex
	data  map[string]*entry
	clock func() time.Time
}

// entry is one key's value and expiry deadline (zero = no TTL).
type entry struct {
	val []byte
	exp time.Time
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
		delete(s.data, key)
		return nil
	}
	return e
}

// insertLocked binds a fresh entry to a copy of key, which may alias the
// caller's request. Its value is empty but not nil: nil is a miss.
func (s *Store) insertLocked(key string) *entry {
	e := &entry{val: []byte{}}
	s.data[strings.Clone(key)] = e
	return e
}

// Set stores key -> value with an optional TTL (0 means no expiry). The
// value is copied into the key's own buffer, which is reused while it is
// large enough: the server's value aliases the request buffer. The error
// is always nil; the signature matches Backend, where the rack-shared
// implementation can reject oversized entries.
func (s *Store) Set(key string, value []byte, ttl time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(key)
	if e == nil {
		e = s.insertLocked(key)
	}
	e.val = append(e.val[:0], value...)
	e.exp = time.Time{}
	if ttl > 0 {
		e.exp = s.clock().Add(ttl)
	}
	return nil
}

// AppendGet appends the reply to a GET of key to dst, copying the value
// under the store's lock: a concurrent SET overwrites it in place.
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
		if s.liveLocked(k) != nil {
			delete(s.data, k)
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
	e.val = strconv.AppendInt(e.val[:0], next, 10)
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
		delete(s.data, key)
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
