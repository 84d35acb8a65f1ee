package redis

import (
	"bytes"
	"slices"
	"time"

	"flacos/internal/fabric"
)

// AdvanceClock moves the shared virtual clock forward by d (from node n)
// and returns the new time. The clock is one global-memory word advanced
// with fabric atomics, so every node observes the same timeline — TTL
// expiry is a rack-wide deterministic event.
func (s *RackStore) AdvanceClock(n *fabric.Node, d time.Duration) uint64 {
	if d <= 0 {
		return s.Now(n)
	}
	return n.Add64(s.clockG, uint64(d.Nanoseconds()))
}

// AdvanceClock moves the shared virtual clock forward by d.
func (v *View) AdvanceClock(d time.Duration) uint64 { return v.s.AdvanceClock(v.n, d) }

// SetClock overrides the expiry clock (tests).
func (s *Store) SetClock(fn func() time.Time) { s.clock = fn }

// View returns the owner's store attachment.
func (cb *Combiner) View() *View { return cb.view }

// Get returns a copy of key's value.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.liveLocked(key)
	if e == nil {
		return nil, false
	}
	return bytes.Clone(e.val), true
}

// Flush sends the queued pipeline and returns the replies in queue order,
// as FlushRecv returns them.
func (c *Client) Flush() ([]Value, error) {
	n, err := c.FlushSend()
	if err != nil {
		return nil, err
	}
	return c.FlushRecv(n)
}

// freeLists returns a copy of each size class's free list.
func (s *Store) freeLists() [numClasses][][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [numClasses][][]byte
	for c, l := range s.free {
		out[c] = slices.Clone(l)
	}
	return out
}
