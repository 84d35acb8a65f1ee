package membership

import "sync/atomic"

// Incarnation returns the member's current incarnation number.
func (m *Member) Incarnation() uint64 { return atomic.LoadUint64(&m.inc) }
