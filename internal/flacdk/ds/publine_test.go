package ds

import (
	"testing"

	"flacos/internal/fabric"
)

const (
	tagA PubTag = 0x7461672d61 // "tag-a"
	tagB PubTag = 0x7461672d62 // "tag-b"
)

type lineImage = [fabric.LineSize]byte

var (
	oldWords  = [PubWords]uint64{1, 2, 3, 4, 5, 6}
	nextWords = [PubWords]uint64{7, 8, 9, 10, 11, 12}
)

// TestPubLine is the primitive's safety table. Each row is one input —
// the line images a reader can be handed in one situation — decoded under
// one tag, and the outcome every image of it must have.
func TestPubLine(t *testing.T) {
	old, next := tagA.Encode(10, oldWords), tagA.Encode(11, nextWords)
	oldRec := PubLine{Payload: oldWords, Sum: tagA.sum(10, &oldWords), Seq: 10}
	empty := func(_ PubLine, err error) bool { return err == ErrPubEmpty }
	corrupt := func(_ PubLine, err error) bool { return err == ErrPubCorrupt }
	isOld := func(l PubLine, err error) bool { return err == nil && l == oldRec }
	oldOrRejected := func(l PubLine, err error) bool { return err == ErrPubCorrupt || isOld(l, err) }

	rows := []struct {
		name   string
		images func(t *testing.T) []lineImage
		tag    PubTag
		want   func(PubLine, error) bool
	}{
		{"zero line is empty", func(*testing.T) []lineImage { return []lineImage{{}} }, tagA, empty},
		{"every single-bit flip is rejected", func(*testing.T) []lineImage { return bitFlips(old) }, tagA, corrupt},
		{"a line of one tag never decodes under another", func(*testing.T) []lineImage { return []lineImage{old, next} }, tagB, corrupt},
		{"every ascending-word prefix of a republish is the old record or rejected",
			func(*testing.T) []lineImage { return prefixes(old, next) }, tagA, oldOrRejected},
		{"a crash between the store and the write-back publishes nothing", crashBeforeWriteBack, tagA, isOld},
	}
	if !isOld(tagA.Decode(old)) {
		t.Fatal("the old record does not round-trip")
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i, b := range row.images(t) {
				if l, err := row.tag.Decode(b); !row.want(l, err) {
					t.Fatalf("image %d %x decoded to %+v, %v", i, b, l, err)
				}
			}
		})
	}
}

func bitFlips(b lineImage) []lineImage {
	var out []lineImage
	for bit := 0; bit < fabric.LineSize*8; bit++ {
		f := b
		f[bit/8] ^= 1 << (bit % 8)
		out = append(out, f)
	}
	return out
}

// prefixes returns old with its first k words replaced by next's, for
// every k short of the whole line: what a write-back, which stores words
// in ascending order, leaves at home when it stops part-way, and what a
// fetch, which loads them descending, sees when it overtakes one.
func prefixes(old, next lineImage) []lineImage {
	var out []lineImage
	for k := 0; k < fabric.LineSize/fabric.WordSize; k++ {
		l := old
		copy(l[:k*fabric.WordSize], next[:])
		out = append(out, l)
	}
	return out
}

// crashBeforeWriteBack publishes the old record, lets the owner store the
// next one in its cache — Publish's first half — and crashes it before the
// write-back; it returns what another node then reads.
func crashBeforeWriteBack(t *testing.T) []lineImage {
	f := rack(t, 2, 1)
	g := f.Reserve(fabric.LineSize, fabric.LineSize)
	owner, reader := f.Node(0), f.Node(1)
	tagA.Publish(owner, g, 10, oldWords)
	next := tagA.Encode(11, nextWords)
	owner.Write(g, next[:])
	owner.Crash()
	var b lineImage
	reader.ReadFresh(g, b[:])
	return []lineImage{b}
}

// TestPubLineFabricBudget pins the primitive's traffic. Publish is one
// full-line store (a hit: no write-allocate fetch) and one write-back.
// Read is one fresh fetch — one load that misses — which charges what
// the InvalidateRange + Read pair it replaces charges and leaves nothing
// resident. Neither side makes an atomic.
func TestPubLineFabricBudget(t *testing.T) {
	f := fabric.New(fabric.Config{GlobalSize: 1 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	g := f.Reserve(2*fabric.LineSize, fabric.LineSize)
	owner, reader := f.Node(0), f.Node(1)

	before := owner.Stats()
	tagA.Publish(owner, g, 1, oldWords)
	d := owner.Stats().Delta(before)
	if d.Stores != 1 || d.Hits != 1 || d.Misses != 0 || d.WriteBacks != 1 || d.Atomics != 0 {
		t.Fatalf("Publish: %+v; want 1 store (a hit), 1 write-back, no miss, no atomic", d)
	}

	tagA.Publish(owner, g.Add(fabric.LineSize), 1, oldWords)
	before = reader.Stats()
	var b lineImage
	reader.InvalidateRange(g.Add(fabric.LineSize), fabric.LineSize)
	reader.Read(g.Add(fabric.LineSize), b[:])
	pair := reader.Stats().Delta(before)

	resident := reader.CacheResidentLines()
	before = reader.Stats()
	l, err := tagA.Read(reader, g)
	d = reader.Stats().Delta(before)
	if err != nil || l.Payload != oldWords || l.Seq != 1 {
		t.Fatalf("Read: %+v, %v", l, err)
	}
	if d.Loads != 1 || d.Misses != 1 || d.Atomics != 0 || d.VirtualNS != pair.VirtualNS {
		t.Fatalf("Read: %+v; want 1 load, 1 miss, no atomic and the pair's %d sim_ns", d, pair.VirtualNS)
	}
	if got := reader.CacheResidentLines(); got != resident {
		t.Fatalf("Read left %d lines resident, want %d", got, resident)
	}
}

// FuzzPubLineDecode drives an arbitrary line through Decode under an
// arbitrary tag: it must not panic, and a line it accepts must be exactly
// what Encode produces from the decoded sequence and payload.
func FuzzPubLineDecode(f *testing.F) {
	for _, b := range []lineImage{
		tagA.Encode(1, oldWords),
		tagA.Encode(1<<63, [PubWords]uint64{^uint64(0), 0, 1 << 40}),
		{},
		prefixes(tagA.Encode(10, oldWords), tagA.Encode(11, nextWords))[7],
	} {
		f.Add(b[:], uint64(tagA))
	}
	f.Add(make([]byte, 3), uint64(tagB))
	f.Fuzz(func(t *testing.T, data []byte, tag uint64) {
		var b lineImage
		copy(b[:], data)
		l, err := PubTag(tag).Decode(b)
		if err != nil {
			return
		}
		if re := PubTag(tag).Encode(l.Seq, l.Payload); re != b {
			t.Fatalf("accepted a line Encode does not produce:\n got %x\nwant %x", b, re)
		}
	})
}
