package redis

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// respSeeds is the shared corpus: every well-formed and malformed shape
// the unit tests exercise, plus the hostile lengths the decoder hardens
// against (overflow-inducing bulk length, unbackable array count).
var respSeeds = []string{
	"+OK\r\n",
	"-ERR x\r\n",
	":-42\r\n",
	":9223372036854775807\r\n",
	"$-1\r\n",
	"$3\r\nabc\r\n",
	"$0\r\n\r\n",
	"*0\r\n",
	"*2\r\n$3\r\nSET\r\n$1\r\nk\r\n",
	"*1\r\n*1\r\n:1\r\n",
	"", "x", "+OK", "$5\r\nab\r\n", ":abc\r\n", "*2\r\n+a\r\n", "$3\r\nabcXX",
	"$9223372036854775806\r\n\r\n",
	"*2147483647\r\n",
	"*-1\r\n",
	"$\r\n", "*\r\n", ":\r\n",
	"\r\n", "+\r\n",
}

// FuzzRESPDecode feeds arbitrary bytes to Decode: it must never panic,
// and on success the consumed count must be a sane self-delimiting prefix
// (decoding just that prefix yields the identical value).
func FuzzRESPDecode(f *testing.F) {
	for _, s := range respSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode(%q) consumed %d of %d bytes", data, n, len(data))
		}
		v2, n2, err2 := Decode(data[:n])
		if err2 != nil || n2 != n || !reflect.DeepEqual(v, v2) {
			t.Fatalf("Decode(%q) not self-delimiting: prefix gave (%+v,%d,%v), full gave (%+v,%d)",
				data, v2, n2, err2, v, n)
		}
	})
}

// FuzzBatchCommandDecode feeds hostile batch framings to ExecuteBatch:
// truncated commands, overflow-inducing lengths, garbage between commands.
// Properties: (1) never panic; (2) the reply stream is itself a fully
// self-delimiting RESP sequence; (3) the reply count matches the number of
// decodable commands in the input prefix, plus exactly one poisoned error
// when the stream breaks mid-batch. Then the same fuzz bytes drive a
// structured phase: MSET/MGET/INCRBY built from the data are pipelined as
// one batch and the interleaved replies must decode with the right shapes.
func FuzzBatchCommandDecode(f *testing.F) {
	for _, s := range respSeeds {
		f.Add([]byte(s))
	}
	// Whole-batch seeds: MSET+MGET+INCRBY pipelines, truncation mid-frame.
	f.Add([]byte("*5\r\n$4\r\nMSET\r\n$1\r\na\r\n$1\r\n1\r\n$1\r\nb\r\n$1\r\n2\r\n*3\r\n$4\r\nMGET\r\n$1\r\na\r\n$1\r\nb\r\n"))
	f.Add([]byte("*3\r\n$6\r\nINCRBY\r\n$1\r\nc\r\n$2\r\n-7\r\n*3\r\n$6\r\nINCRBY\r\n$1\r\nc\r\n$19\r\n9223372036854775807\r\n"))
	f.Add([]byte("*3\r\n$4\r\nMGET\r\n$1\r\na\r\n$1\r\nb\r\n*2\r\n$4\r\nMGET\r\n$300\r\ntruncated"))
	f.Add([]byte("+inline\r\n*1\r\n$4\r\nPING\r\n:42\r\n"))
	// EXPIRE pipelines: set-then-expire, expire of a missing key, the
	// delete-now negative-ttl form, and a truncated EXPIRE mid-frame.
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n*3\r\n$6\r\nEXPIRE\r\n$1\r\na\r\n$2\r\n10\r\n*2\r\n$3\r\nGET\r\n$1\r\na\r\n"))
	f.Add([]byte("*3\r\n$6\r\nEXPIRE\r\n$7\r\nmissing\r\n$1\r\n5\r\n*3\r\n$6\r\nEXPIRE\r\n$1\r\na\r\n$2\r\n-1\r\n"))
	f.Add([]byte("*3\r\n$6\r\nEXPIRE\r\n$1\r\na\r\n$3\r\nnan\r\n*3\r\n$6\r\nEXPIRE\r\n$1\r\na"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer(NewStore())
		out := s.ExecuteBatch(nil, data)

		// Count how many commands the batch loop could have consumed, and
		// whether it then hit a decode error (which poisons the remainder).
		cmds, poisoned := 0, false
		for rest := data; len(rest) > 0; {
			_, n, err := Decode(rest)
			if err != nil {
				poisoned = true
				break
			}
			cmds++
			rest = rest[n:]
		}

		replies := 0
		for rest := out; len(rest) > 0; {
			_, n, err := Decode(rest)
			if err != nil {
				t.Fatalf("ExecuteBatch(%q) produced undecodable reply stream at %q", data, rest)
			}
			replies++
			rest = rest[n:]
		}
		want := cmds
		if poisoned {
			want++ // the single "ERR protocol error" that ends the batch
		}
		if replies != want {
			t.Fatalf("ExecuteBatch(%q): %d replies for %d commands (poisoned=%v)", data, replies, cmds, poisoned)
		}

		// Structured phase: fuzz-derived keys/values pipelined as
		// MSET(pairs) ; MGET(keys) ; INCRBY ctr <delta> ; MGET(keys).
		fields := bytes.Split(data, []byte{0xff})
		if len(fields) > 16 {
			fields = fields[:16]
		}
		if len(fields)%2 == 1 {
			fields = append(fields, []byte("pad"))
		}
		// Keys get a "k:" prefix so a fuzz-chosen key can never collide
		// with the INCRBY counter.
		keys := make([][]byte, 0, len(fields)/2)
		msetArgs := [][]byte{[]byte("MSET")}
		for i := 0; i < len(fields); i += 2 {
			k := append([]byte("k:"), fields[i]...)
			keys = append(keys, k)
			msetArgs = append(msetArgs, k, fields[i+1])
		}
		mgetArgs := append([][]byte{[]byte("MGET")}, keys...)
		var pad [8]byte
		copy(pad[:], data)
		delta := int64(binary.LittleEndian.Uint64(pad[:])) % 1000
		batch := AppendCommand(nil, msetArgs...)
		batch = AppendCommand(batch, mgetArgs...)
		batch = AppendCommand(batch, []byte("INCRBY"), []byte("ctr"), []byte(strconv.FormatInt(delta, 10)))
		batch = AppendCommand(batch, mgetArgs...)

		out = s.ExecuteBatch(nil, batch)
		var vals []Value
		for rest := out; len(rest) > 0; {
			v, n, err := Decode(rest)
			if err != nil {
				t.Fatalf("structured batch reply undecodable at %q", rest)
			}
			vals = append(vals, v)
			rest = rest[n:]
		}
		if len(vals) != 4 {
			t.Fatalf("structured batch: %d replies, want 4", len(vals))
		}
		if vals[0].Kind != respSimple || vals[0].Str != "OK" {
			t.Fatalf("MSET reply = %+v, want +OK", vals[0])
		}
		for _, i := range []int{1, 3} {
			if vals[i].Kind != respArray || len(vals[i].Array) != len(keys) {
				t.Fatalf("MGET reply %d = kind %q with %d elems, want array of %d", i, vals[i].Kind, len(vals[i].Array), len(keys))
			}
		}
		// Every MSET key must read back; duplicate keys resolve to the
		// LAST written value (later pair wins), so check against that.
		last := make(map[string][]byte, len(keys))
		for i := 0; i < len(fields); i += 2 {
			last["k:"+string(fields[i])] = fields[i+1]
		}
		for i, k := range keys {
			got := vals[3].Array[i]
			want := last[string(k)]
			if got.Kind != respBulk || got.Bulk == nil && len(want) > 0 || !bytes.Equal(got.Bulk, want) {
				t.Fatalf("MGET[%d] key %q = %q, want %q", i, k, got.Bulk, want)
			}
		}
		if vals[2].Kind != respInt || vals[2].Int != delta {
			t.Fatalf("INCRBY reply = %+v, want :%d", vals[2], delta)
		}
	})
}

// FuzzRESPRoundTrip drives the encoder with fuzz-derived content and
// checks decode(encode(x)) == x for commands (arrays of bulks), integers,
// and simple strings.
func FuzzRESPRoundTrip(f *testing.F) {
	for _, s := range respSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte("SET\xffkey\xffvalue"))
	f.Add(bytes.Repeat([]byte{0xff}, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Command: the input split on 0xff becomes the argument vector.
		args := bytes.Split(data, []byte{0xff})
		if len(args) > 32 {
			args = args[:32]
		}
		enc := AppendCommand(nil, args...)
		v, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("command round-trip: Decode(%q) = (_, %d, %v), want full %d bytes", enc, n, err, len(enc))
		}
		if v.Kind != respArray || len(v.Array) != len(args) {
			t.Fatalf("command round-trip: got kind %q with %d elements, want array of %d", v.Kind, len(v.Array), len(args))
		}
		encCopy := bytes.Clone(enc)
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(enc)))
		for i, a := range args {
			got := v.Array[i].Bulk
			if got == nil { // a nil argument encodes as the null bulk
				if a != nil {
					t.Fatalf("command round-trip: arg %d decoded as a null bulk", i)
				}
				continue
			}
			if !bytes.Equal(got, a) {
				t.Fatalf("command round-trip: arg %d = %q, want %q", i, got, a)
			}
			// The bulk aliases enc, and its capacity ends where it does,
			// so an append to it copies instead of overwriting enc.
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(got))); p < lo || p+uintptr(len(got)) > lo+uintptr(len(enc)) {
				t.Fatalf("command round-trip: arg %d does not lie inside the encoded input", i)
			}
			if cap(got) != len(got) {
				t.Fatalf("command round-trip: arg %d has cap %d, len %d", i, cap(got), len(got))
			}
			_ = append(got, 0xAA)
		}
		if !bytes.Equal(enc, encCopy) {
			t.Fatalf("appending to decoded bulks changed the input: %q, was %q", enc, encCopy)
		}

		// Integer: the first 8 bytes (zero-padded) as an int64.
		var pad [8]byte
		copy(pad[:], data)
		want := int64(binary.LittleEndian.Uint64(pad[:]))
		v, n, err = Decode(AppendInt(nil, want))
		if err != nil || v.Kind != respInt || v.Int != want {
			t.Fatalf("int round-trip: %d gave (%+v, %d, %v)", want, v, n, err)
		}

		// Simple string: CR/LF cannot appear inside the unescaped frame.
		s := strings.NewReplacer("\r", "", "\n", "").Replace(string(data))
		v, _, err = Decode(AppendSimple(nil, s))
		if err != nil || v.Kind != respSimple || v.Str != s {
			t.Fatalf("simple round-trip: %q gave (%+v, %v)", s, v, err)
		}
	})
}

// FuzzServerAgainstModel runs a fuzz-chosen stream of SET (with and
// without EX), GET, DEL, INCRBY and EXPIRE commands, and clock advances,
// through a server over a Store and through a map model of it, and
// compares every reply and, at the end, every key and DBSIZE. Each request
// is scribbled over after it runs, so a key or value the store kept
// without copying turns up as a wrong later reply. The keys differ in
// length and the values in length and kind: lengths run from 0 to 6,096
// bytes, so a SET stays in its buffer's size class or trades the buffer
// for one of another class, below and above 64 bytes, a DEL or expiry
// frees a buffer that a later SET or INCRBY takes up, and INCRBY meets
// integers, non-integers and its overflow bounds. After every command the
// Store's buffers must pass checkStoreBuffers.
func FuzzServerAgainstModel(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 1, 0, 0, 1, 200, 1, 1, 0})
	f.Add([]byte{3, 2, 3, 3, 2, 3, 1, 2, 0, 0, 2, 8, 4, 2, 3, 5, 0, 2, 1, 2, 0})
	f.Add([]byte{0, 0, 9, 4, 0, 4, 5, 0, 3, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 3, 0, 3, 3, 4, 3, 3, 0, 3, 3, 5, 1, 3, 0})
	// Class swaps down and up, a DEL, and INCRBYs into recycled buffers.
	f.Add([]byte{0, 1, 150, 0, 1, 2, 0, 2, 254, 0, 2, 70, 2, 2, 0, 3, 2, 0, 0, 1, 254, 1, 1, 0, 2, 1, 0, 3, 1, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore()
		now := time.Unix(1000, 0)
		st.SetClock(func() time.Time { return now })
		srv := NewServer(st)

		type entry struct {
			val string
			exp time.Time // zero = no TTL
		}
		model := map[string]entry{}
		// live mirrors the store's lazy expiry: an expired key is purged
		// when an op touches it, and not before.
		live := func(k string) (entry, bool) {
			e, ok := model[k]
			if ok && !e.exp.IsZero() && now.After(e.exp) {
				delete(model, k)
				return entry{}, false
			}
			return e, ok
		}
		keys := []string{"", "k", "key:1", "a rather longer key name"}
		deltas := []int64{1, -1, 1000, math.MaxInt64, math.MinInt64, 7}
		var out []byte
		for ; len(data) >= 3; data = data[3:] {
			op, k, arg := data[0]%6, keys[int(data[1])%len(keys)], data[2]
			var req []byte
			var want string
			switch op {
			case 0: // SET, EX on every second arg
				n := int(arg)
				if arg >= 128 {
					n = (n - 128) * 48
				}
				val := strings.Repeat(string(rune('a'+arg%26)), n)
				if arg%4 == 0 {
					val = strconv.Itoa((int(arg) - 128) * 1000)
				}
				if arg%2 == 0 {
					req = AppendCommand(nil, []byte("SET"), []byte(k), []byte(val))
					model[k] = entry{val: val}
					want = "+OK\r\n"
					break
				}
				secs := int64(arg%5) - 1
				req = AppendCommand(nil, []byte("SET"), []byte(k), []byte(val), []byte("EX"), []byte(strconv.FormatInt(secs, 10)))
				want = "-ERR invalid expire time in 'set' command\r\n"
				if secs > 0 {
					model[k] = entry{val: val, exp: now.Add(time.Duration(secs) * time.Second)}
					want = "+OK\r\n"
				}
			case 1: // GET
				req = AppendCommand(nil, []byte("GET"), []byte(k))
				want = "$-1\r\n"
				if e, ok := live(k); ok {
					want = string(AppendBulk(nil, []byte(e.val)))
				}
			case 2: // DEL
				req = AppendCommand(nil, []byte("DEL"), []byte(k))
				want = ":0\r\n"
				if _, ok := live(k); ok {
					delete(model, k)
					want = ":1\r\n"
				}
			case 3: // INCRBY
				delta := deltas[int(arg)%len(deltas)]
				req = AppendCommand(nil, []byte("INCRBY"), []byte(k), []byte(strconv.FormatInt(delta, 10)))
				e, ok := live(k)
				cur, err := int64(0), error(nil)
				if ok {
					cur, err = strconv.ParseInt(e.val, 10, 64)
				}
				switch {
				case err != nil:
					want = "-ERR value is not an integer or out of range\r\n"
				case delta > 0 && cur > math.MaxInt64-delta || delta < 0 && cur < math.MinInt64-delta:
					want = "-ERR increment or decrement would overflow\r\n"
				default:
					e.val = strconv.FormatInt(cur+delta, 10)
					model[k] = e
					want = string(AppendInt(nil, cur+delta))
				}
			case 4: // EXPIRE
				secs := int64(arg%7) - 2
				req = AppendCommand(nil, []byte("EXPIRE"), []byte(k), []byte(strconv.FormatInt(secs, 10)))
				want = ":0\r\n"
				if e, ok := live(k); ok {
					want = ":1\r\n"
					if secs <= 0 {
						delete(model, k)
					} else {
						e.exp = now.Add(time.Duration(secs) * time.Second)
						model[k] = e
					}
				}
			case 5: // the clock moves on
				now = now.Add(time.Duration(arg%4) * time.Second)
				continue
			}
			out = srv.ExecuteBatch(out[:0], req)
			if string(out) != want {
				t.Fatalf("%q = %q, want %q", req, out, want)
			}
			scribble(req)
			checkStoreBuffers(t, st)
		}
		for _, k := range keys {
			want := "$-1\r\n"
			if e, ok := live(k); ok {
				want = string(AppendBulk(nil, []byte(e.val)))
			}
			if got := string(srv.Execute(AppendCommand(nil, []byte("GET"), []byte(k)))); got != want {
				t.Fatalf("final GET %q = %q, want %q", k, got, want)
			}
		}
		if got, want := st.Len(), len(model); got != want {
			t.Fatalf("final DBSIZE = %d, want %d", got, want)
		}
	})
}
