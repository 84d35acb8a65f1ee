package torture

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// A register is a cell that one writer updates with ever higher versions
// while any node may read it: a hash-map key, a file page, a page of the
// shared address space, a RackStore key, a ring's message stream. Every
// checker of the §3.2 claim that survivors never read a lost, torn or
// stale value asks the same question of a read: is it present, intact,
// about this register, and not behind the last acknowledged write? This
// file answers it once, for torture's workloads and the experiments'
// integrity counters alike.
//
// The payload says which version of which register it holds. Word 0 is
// the header, ver<<32 | id (both below 2^32); the bytes after it are
// derived from the header, the payload's length and the offset, so any
// mix of two payloads, or a payload cut short, fails the byte check.
// Versions start at 1, so a payload with a zero header is torn: an
// all-zero value is what a reader finds when a publish overtook the write
// of its value into fresh, zeroed memory.

// Payload returns register id's payload at version ver, size bytes long
// (at least 9).
func Payload(id, ver uint64, size int) []byte {
	p := make([]byte, size)
	PutPayload(p, id, ver)
	return p
}

// PutPayload fills p (at least 9 bytes) with register id's payload at
// version ver.
func PutPayload(p []byte, id, ver uint64) {
	if len(p) < 9 {
		panic(fmt.Sprintf("torture: a %d-byte payload has no body", len(p)))
	}
	h := Word(id, ver)
	binary.LittleEndian.PutUint64(p, h)
	for k := 8; k < len(p); k++ {
		p[k] = bodyByte(h, len(p), k)
	}
}

// Word is the header alone: the whole payload of a register held in one
// atomic word.
func Word(id, ver uint64) uint64 { return ver<<32 | id }

// bodyByte is byte k of an n-byte payload with header h (splitmix64's
// finalizer over all three).
func bodyByte(h uint64, n, k int) byte {
	z := h*0x9e3779b97f4a7c15 + uint64(n)<<40 + uint64(k)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return byte(z ^ z>>31)
}

// Read is what one read of a register found.
type Read struct {
	Present bool // a payload was there
	Intact  bool // every body byte matches its header
	ID, Ver uint64
}

// Decode reads a payload. Only nil is absent (a store miss, RESP's null
// bulk); any other payload shorter than 9 bytes, with a zero header or
// with a body byte off is torn.
func Decode(p []byte) Read {
	if p == nil {
		return Read{}
	}
	if len(p) < 8 {
		return Read{Present: true}
	}
	h := binary.LittleEndian.Uint64(p)
	g := DecodeWord(h)
	g.Present = true
	g.Intact = h != 0 && len(p) > 8
	for k := 8; k < len(p) && g.Intact; k++ {
		g.Intact = p[k] == bodyByte(h, len(p), k)
	}
	return g
}

// DecodeWord reads a header word alone: a register held in one atomic
// word, or a header read whose body is not checked. 0 is absent.
func DecodeWord(h uint64) Read {
	return Read{Present: h != 0, Intact: h != 0, ID: h & (1<<32 - 1), Ver: h >> 32}
}

// Bounds are the versions a read may return.
type Bounds struct {
	Floor uint64 // committed before the read began
	Ceil  uint64 // the highest its writer may have left there (0: any)
	Last  uint64 // the highest this reader saw before (0: none)
}

// Verdict is the outcome of one register read.
type Verdict uint8

// Verdicts, in the order Classify tests them.
const (
	OK Verdict = iota
	// Absent: nothing there, though a version was committed or seen.
	Absent
	// Torn: a body that does not match its header.
	Torn
	// WrongID: another register's payload.
	WrongID
	// BehindFloor: older than the version committed before the read.
	BehindFloor
	// BehindLast: older than a version this reader already saw.
	BehindLast
	// Ahead: newer than any version its writer may have left there: a
	// crash resync past committed+1, a quiescent register past its last
	// commit.
	Ahead
)

func (v Verdict) String() string {
	return [...]string{"ok", "absent", "torn", "wrong identity", "behind the committed floor",
		"behind the reader's last", "ahead of its writer"}[v]
}

// Classify judges read g of the register whose payloads carry identity
// id, against the versions b allows.
func Classify(id uint64, b Bounds, g Read) Verdict {
	switch {
	case !g.Present:
		if b.Floor > 0 || b.Last > 0 {
			return Absent
		}
		return OK // never written
	case !g.Intact:
		return Torn
	case g.ID != id:
		return WrongID
	case g.Ver < b.Floor:
		return BehindFloor
	case g.Ver < b.Last:
		return BehindLast
	case b.Ceil != 0 && g.Ver > b.Ceil:
		return Ahead
	}
	return OK
}

// Registers is a set of single-writer registers, each with its committed
// floor: the version its writer last had acknowledged, which the
// quiescent register must hold exactly.
type Registers struct {
	floor []atomic.Uint64
	share int
	name  func(r int) string
}

// NewRegisters returns n registers, none committed. Each run of share
// consecutive registers carries one identity, and so one image (memsys
// writes both pages of a pair identically so that dedup merges them);
// name names register r in a violation.
func NewRegisters(n, share int, name func(r int) string) *Registers {
	return &Registers{floor: make([]atomic.Uint64, n), share: share, name: name}
}

// Len is the number of registers.
func (rs *Registers) Len() int { return len(rs.floor) }

// ID is the identity register r's payloads carry.
func (rs *Registers) ID(r int) uint64 { return uint64(r / rs.share) }

// Floor is register r's committed version. Load it before a read.
func (rs *Registers) Floor(r int) uint64 { return rs.floor[r].Load() }

// Commit records that r's writer had version ver acknowledged.
func (rs *Registers) Commit(r int, ver uint64) { rs.floor[r].Store(ver) }

// check classifies read g of register r against b, recording a violation
// for client ci.
func (rs *Registers) check(env *Env, ci, r int, b Bounds, g Read) Verdict {
	v := Classify(rs.ID(r), b, g)
	if v != OK {
		env.Violatef(ci, "%s (id %d): %v: read %+v, want %+v", rs.name(r), rs.ID(r), v, g, b)
	}
	return v
}

// resync is a writer's re-read of register r after a crash cut its last
// write, which either landed or did not: it must find the committed
// version or the next. It commits what it found (the committed version
// after a violation).
func (rs *Registers) resync(env *Env, ci, r int, g Read) {
	if c := rs.Floor(r); rs.check(env, ci, r, Bounds{Floor: c, Ceil: c + 1}, g) == OK {
		rs.Commit(r, g.Ver)
	}
}

// checkFinal reads every register of the quiescent set through read, and
// records a violation, prefixed by tag, for each that does not hold
// exactly its committed version. Every writer has run to completion (a
// halted sweep is not checked), so its last commit is final.
func (rs *Registers) checkFinal(env *Env, tag string, read func(r int) (Read, error)) {
	for r := range rs.floor {
		want := rs.Floor(r)
		g, err := read(r)
		if err != nil {
			env.Violatef(-1, "%s: %s: read failed: %v", tag, rs.name(r), err)
		} else if v := Classify(rs.ID(r), Bounds{Floor: want, Ceil: want}, g); v != OK {
			env.Violatef(-1, "%s: %s (id %d): %v: read %+v, want v%d", tag, rs.name(r), rs.ID(r), v, g, want)
		}
	}
}
