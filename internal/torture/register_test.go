package torture

import (
	"strings"
	"testing"
)

// TestRegisterChecker: each verdict fires on a read crafted to earn it,
// and a correct read passes. The register read has identity 3 and was
// committed at v5; identity 4 is another register's.
func TestRegisterChecker(t *testing.T) {
	const size, floor, id = 40, 5, 3
	flipped := Payload(id, floor, size)
	flipped[size-3] ^= 0x10
	for _, c := range []struct {
		name string
		b    Bounds
		p    []byte
		want Verdict
	}{
		{"at the floor", Bounds{Floor: floor}, Payload(id, floor, size), OK},
		{"above the floor", Bounds{Floor: floor}, Payload(id, floor+3, size), OK},
		{"absent", Bounds{Floor: floor}, nil, Absent},
		{"absent before any commit", Bounds{}, nil, OK},
		{"zeroed before any commit", Bounds{}, make([]byte, size), Torn},
		{"zeroed", Bounds{Floor: floor}, make([]byte, size), Torn},
		{"empty", Bounds{}, []byte{}, Torn},
		{"one pattern byte flipped", Bounds{Floor: floor}, flipped, Torn},
		{"cut short", Bounds{Floor: floor}, Payload(id, floor, size)[:size-1], Torn},
		{"another register's image", Bounds{Floor: floor}, Payload(id+1, floor, size), WrongID},
		{"one version below the floor", Bounds{Floor: floor}, Payload(id, floor-1, size), BehindFloor},
		{"one version below the reader's last", Bounds{Floor: floor, Last: floor + 2}, Payload(id, floor+1, size), BehindLast},
		{"a resync that reads committed", Bounds{Floor: floor, Ceil: floor + 1}, Payload(id, floor, size), OK},
		{"a resync that reads committed+1", Bounds{Floor: floor, Ceil: floor + 1}, Payload(id, floor+1, size), OK},
		{"a resync that reads committed+2", Bounds{Floor: floor, Ceil: floor + 1}, Payload(id, floor+2, size), Ahead},
	} {
		if got := Classify(id, c.b, Decode(c.p)); got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRegisterResyncAndFinal drives the torture side: a writer's resync
// commits what it found, or reports anything but committed or
// committed+1; a quiescent register must hold exactly its committed
// version.
func TestRegisterResyncAndFinal(t *testing.T) {
	env := &Env{}
	rs := NewRegisters(1, 1, func(r int) string { return "reg" })
	rs.Commit(0, 5)
	rs.resync(env, 0, 0, DecodeWord(Word(rs.ID(0), 6)))
	if rs.Floor(0) != 6 || len(env.takeViolations()) != 0 {
		t.Fatalf("a resync that found committed+1 committed v%d", rs.Floor(0))
	}
	rs.resync(env, 0, 0, DecodeWord(Word(rs.ID(0), 8)))
	if v := env.takeViolations(); rs.Floor(0) != 6 || len(v) != 1 || !strings.Contains(v[0].Detail, "ahead") {
		t.Fatalf("a resync that found committed+2: floor v%d, violations %v", rs.Floor(0), v)
	}

	for _, c := range []struct {
		ver  uint64
		viol bool
	}{{6, false}, {5, true}, {7, true}} {
		rs.checkFinal(env, "final", func(r int) (Read, error) {
			return Decode(Payload(rs.ID(r), c.ver, 9)), nil
		})
		if v := env.takeViolations(); (len(v) != 0) != c.viol {
			t.Errorf("final v6, quiescent v%d: violations %v", c.ver, v)
		}
	}
}

// TestPayloadRoundTrip: a payload decodes to the identity and version it
// was made with at every length from the shortest with a body to a page,
// and two registers sharing an identity carry one image.
func TestPayloadRoundTrip(t *testing.T) {
	for _, size := range []int{9, 40, 4096} {
		p := Payload(7, 1<<32-1, size)
		if g := Decode(p); g != (Read{Present: true, Intact: true, ID: 7, Ver: 1<<32 - 1}) {
			t.Errorf("%d bytes: decoded %+v", size, g)
		}
		mix := append(Payload(7, 1<<32-2, size)[:8], p[8:]...)
		if g := Decode(mix); g.Intact {
			t.Errorf("%d bytes: one version's header over another's body decoded intact", size)
		}
	}
	if g := DecodeWord(Word(3, 9)); g != (Read{Present: true, Intact: true, ID: 3, Ver: 9}) {
		t.Errorf("header word decoded %+v", g)
	}
	pairs := NewRegisters(4, 2, nil)
	if pairs.ID(2) != pairs.ID(3) || pairs.ID(1) == pairs.ID(2) {
		t.Errorf("pair identities %d %d %d", pairs.ID(1), pairs.ID(2), pairs.ID(3))
	}
}
