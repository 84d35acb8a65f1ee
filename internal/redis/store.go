package redis

import (
	"strconv"
	"sync"
	"time"
)

// Store is the single-node keyspace: string keys to byte values with
// optional expiry, guarded by a mutex exactly like real Redis's
// single-threaded command execution (one logical executor). Its expiry
// clock is NODE-LOCAL — fine for one node, but a rack serving one
// dataset needs the shared-virtual-clock TTLs of RackStore, where
// expiry is the same event on every node.
type Store struct {
	mu      sync.Mutex
	data    map[string][]byte
	expires map[string]time.Time
	clock   func() time.Time
}

// NewStore creates an empty keyspace.
func NewStore() *Store {
	return &Store{
		data:    make(map[string][]byte),
		expires: make(map[string]time.Time),
		clock:   time.Now,
	}
}

// SetClock overrides the expiry clock (tests).
func (s *Store) SetClock(fn func() time.Time) { s.clock = fn }

func (s *Store) expiredLocked(key string) bool {
	exp, ok := s.expires[key]
	if !ok {
		return false
	}
	if s.clock().After(exp) {
		delete(s.data, key)
		delete(s.expires, key)
		return true
	}
	return false
}

// Set stores key -> value with an optional TTL (0 means no expiry). It
// keeps a copy of value: the server's value aliases the request buffer.
// The error is always nil; the signature matches Backend, where the
// rack-shared implementation can reject oversized entries.
func (s *Store) Set(key string, value []byte, ttl time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(value))
	copy(cp, value)
	s.data[key] = cp
	if ttl > 0 {
		s.expires[key] = s.clock().Add(ttl)
	} else {
		delete(s.expires, key)
	}
	return nil
}

// Get returns the value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expiredLocked(key) {
		return nil, false
	}
	v, ok := s.data[key]
	return v, ok
}

// Del removes keys, returning how many existed.
func (s *Store) Del(keys ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if s.expiredLocked(k) {
			continue
		}
		if _, ok := s.data[k]; ok {
			delete(s.data, k)
			delete(s.expires, k)
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
		if s.expiredLocked(k) {
			continue
		}
		if _, ok := s.data[k]; ok {
			n++
		}
	}
	return n
}

// MGet returns the values for keys in order (nil = miss) under one lock
// acquisition, matching the rack store's batched read.
func (s *Store) MGet(keys ...string) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		if s.expiredLocked(k) {
			continue
		}
		vals[i] = s.data[k]
	}
	return vals
}

// Incr atomically increments the integer stored at key, returning the new
// value; missing keys start at 0.
func (s *Store) Incr(key string) (int64, error) { return s.IncrBy(key, 1) }

// IncrBy atomically adds delta to the integer stored at key, returning
// the new value.
func (s *Store) IncrBy(key string, delta int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expiredLocked(key)
	cur := int64(0)
	if v, ok := s.data[key]; ok {
		parsed, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return 0, err
		}
		cur = parsed
	}
	cur += delta
	s.data[key] = strconv.AppendInt(nil, cur, 10)
	return cur, nil
}

// Expire sets a fresh TTL on key, reporting whether it existed. A
// non-positive ttl deletes the key immediately, as in real Redis.
func (s *Store) Expire(key string, ttl time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expiredLocked(key) {
		return false
	}
	if _, ok := s.data[key]; !ok {
		return false
	}
	if ttl <= 0 {
		delete(s.data, key)
		delete(s.expires, key)
		return true
	}
	s.expires[key] = s.clock().Add(ttl)
	return true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}
