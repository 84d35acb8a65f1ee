package redis

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// TestSizeClasses: every length up to the largest class falls in the
// smallest class that holds it; the classes step by 16 bytes up to 64
// and by a quarter of the power of two below them above it.
func TestSizeClasses(t *testing.T) {
	want := []int{16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320}
	for c, size := range want {
		if got := classSize(c); got != size {
			t.Fatalf("classSize(%d) = %d, want %d", c, got, size)
		}
	}
	if got := classSize(numClasses - 1); got != maxPooledValue {
		t.Fatalf("the largest class holds %d bytes, want %d", got, maxPooledValue)
	}
	for n := 0; n <= maxPooledValue; n++ {
		c := sizeClass(n)
		if c >= numClasses || classSize(c) < n || c > 0 && classSize(c-1) >= n {
			t.Fatalf("sizeClass(%d) = %d, of size %d", n, c, classSize(c))
		}
	}
	if c := sizeClass(maxPooledValue + 1); c != numClasses {
		t.Fatalf("sizeClass(%d) = %d, want none (%d)", maxPooledValue+1, c, numClasses)
	}
}

// checkStoreBuffers fails t unless every live value is in a buffer of its
// own class (or, past the largest class, one that holds it), every free
// buffer is empty with its class's capacity, no free list is longer than
// freeListCap, and no two of all those buffers share a byte of backing
// array.
func checkStoreBuffers(t *testing.T, s *Store) {
	t.Helper()
	type span struct {
		lo, hi uintptr
		what   string
	}
	var spans []span
	add := func(b []byte, what string) {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b[:cap(b)])))
		spans = append(spans, span{lo, lo + uintptr(cap(b)), what})
	}
	for c, l := range s.freeLists() {
		if len(l) > freeListCap {
			t.Fatalf("class %d's free list holds %d buffers, cap %d", c, len(l), freeListCap)
		}
		for _, b := range l {
			if len(b) != 0 || cap(b) != classSize(c) {
				t.Fatalf("a free buffer of class %d (size %d) has len %d, cap %d", c, classSize(c), len(b), cap(b))
			}
			add(b, "free class "+strconv.Itoa(c))
		}
	}
	s.mu.Lock()
	for k, e := range s.data {
		n := len(e.val)
		if e.val == nil || sizeClass(n) < numClasses && cap(e.val) != classSize(sizeClass(n)) || cap(e.val) < n {
			t.Fatalf("key %q holds %d bytes in a buffer of cap %d (nil %v)", k, n, cap(e.val), e.val == nil)
		}
		add(e.val, "key "+strconv.Quote(k))
	}
	s.mu.Unlock()
	slices.SortFunc(spans, func(a, b span) int { return int(a.lo) - int(b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s and %s share a backing array", spans[i-1].what, spans[i].what)
		}
	}
}

// TestStoreRecyclesAgainstModel runs random SET (with and without a TTL),
// GET, DEL, INCRBY and EXPIRE ops and clock advances on a Store and on a
// map, with values whose lengths cross every class boundary from 16 bytes
// to past the largest class in both directions, and compares every
// answer. A GET reply is kept after it is taken and must stay
// byte-identical through every later op, which would catch a GET that
// aliased a buffer a later SET handed on. After every op the buffers must
// pass checkStoreBuffers.
func TestStoreRecyclesAgainstModel(t *testing.T) {
	st := NewStore()
	now := time.Unix(1000, 0)
	st.SetClock(func() time.Time { return now })
	r := rand.New(rand.NewPCG(1, 50))
	type entry struct {
		val string
		exp time.Time
	}
	model := map[string]entry{}
	live := func(k string) (entry, bool) {
		e, ok := model[k]
		if ok && !e.exp.IsZero() && now.After(e.exp) {
			delete(model, k)
			return entry{}, false
		}
		return e, ok
	}
	lens := []int{0, 1, 16, 17, 40, 63, 64, 65, 80, 81, 128, 129, 300, 1000, 2048, 2560, 4096, 4608, 6144, maxPooledValue, maxPooledValue + 1}
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = "key:" + strconv.Itoa(i)
	}
	type held struct{ reply, want []byte }
	var kept []held
	classes := map[int]bool{}
	for i := 0; i < 6000; i++ {
		k := keys[r.IntN(len(keys))]
		switch op := r.IntN(10); {
		case op < 4: // SET, a TTL on every fourth
			n := lens[r.IntN(len(lens))]
			classes[sizeClass(n)] = true
			val := bytes.Repeat([]byte{byte('a' + i%26)}, n)
			ttl := time.Duration(0)
			if op == 0 {
				ttl = time.Duration(1+r.IntN(3)) * time.Second
			}
			st.Set(k, val, ttl)
			e := entry{val: string(val)}
			if ttl > 0 {
				e.exp = now.Add(ttl)
			}
			model[k] = e
			scribble(val) // the store keeps its own copy
		case op < 6: // GET
			reply := st.AppendGet(nil, k)
			want := AppendBulk(nil, nil)
			if e, ok := live(k); ok {
				want = AppendBulk(nil, []byte(e.val))
			}
			if !bytes.Equal(reply, want) {
				t.Fatalf("op %d: GET %s = %d bytes, want %d", i, k, len(reply), len(want))
			}
			kept = append(kept, held{reply, bytes.Clone(want)})
			if len(kept) > 16 {
				kept = kept[1:]
			}
		case op == 6: // DEL
			_, ok := live(k)
			delete(model, k)
			if got := st.Del(k); got != map[bool]int{false: 0, true: 1}[ok] {
				t.Fatalf("op %d: DEL %s = %d, live %v", i, k, got, ok)
			}
		case op == 7: // INCRBY
			delta := int64(r.IntN(2001) - 1000)
			e, ok := live(k)
			cur, perr := int64(0), error(nil)
			if ok {
				cur, perr = strconv.ParseInt(e.val, 10, 64)
			}
			got, err := st.IncrBy(k, delta)
			if (err != nil) != (perr != nil) || err == nil && got != cur+delta {
				t.Fatalf("op %d: INCRBY %s %d = %d, %v; model %d, %v", i, k, delta, got, err, cur+delta, perr)
			}
			if err == nil {
				e.val = strconv.FormatInt(cur+delta, 10)
				model[k] = e
			}
		case op == 8: // EXPIRE, deleting on a non-positive TTL
			secs := r.IntN(4) - 1
			e, ok := live(k)
			if got := st.Expire(k, time.Duration(secs)*time.Second); got != ok {
				t.Fatalf("op %d: EXPIRE %s = %v, live %v", i, k, got, ok)
			}
			if ok && secs <= 0 {
				delete(model, k)
			} else if ok {
				e.exp = now.Add(time.Duration(secs) * time.Second)
				model[k] = e
			}
		default: // the clock moves on
			now = now.Add(time.Second)
		}
		for _, h := range kept {
			if !bytes.Equal(h.reply, h.want) {
				t.Fatalf("op %d: a GET reply taken earlier changed", i)
			}
		}
		checkStoreBuffers(t, st)
	}
	for _, k := range keys {
		want := AppendBulk(nil, nil)
		if e, ok := live(k); ok {
			want = AppendBulk(nil, []byte(e.val))
		}
		if got := st.AppendGet(nil, k); !bytes.Equal(got, want) {
			t.Fatalf("final GET %s = %d bytes, want %d", k, len(got), len(want))
		}
	}
	if st.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", st.Len(), len(model))
	}
	if len(classes) < 12 {
		t.Fatalf("the SETs covered %d classes", len(classes))
	}
}
