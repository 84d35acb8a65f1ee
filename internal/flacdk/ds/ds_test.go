package ds

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"flacos/internal/fabric"
)

func rack(t *testing.T, nodes int, mb uint64) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: mb << 20, Nodes: nodes})
}

// --- HashMap ---

func TestHashMapBasics(t *testing.T) {
	f := rack(t, 2, 4)
	m := NewHashMap(f, 64)
	a, b := f.Node(0), f.Node(1)

	if _, ok := m.Get(a, 7); ok {
		t.Fatal("empty map should miss")
	}
	if _, existed := m.Put(a, 7, 100); existed {
		t.Fatal("fresh key reported existing")
	}
	if v, ok := m.Get(b, 7); !ok || v != 100 {
		t.Fatalf("cross-node Get = %d,%v", v, ok)
	}
	if prev, existed := m.Put(b, 7, 200); !existed || prev != 100 {
		t.Fatalf("update: prev=%d existed=%v", prev, existed)
	}
	if m.Len(a) != 1 {
		t.Fatalf("Len = %d", m.Len(a))
	}
	if v, ok := m.Delete(a, 7); !ok || v != 200 {
		t.Fatalf("Delete = %d,%v", v, ok)
	}
	if _, ok := m.Get(b, 7); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len(a) != 0 {
		t.Fatalf("Len after delete = %d", m.Len(a))
	}
	if _, ok := m.Delete(a, 7); ok {
		t.Fatal("double delete reported success")
	}
}

func TestHashMapZeroValueAllowed(t *testing.T) {
	f := rack(t, 1, 4)
	m := NewHashMap(f, 8)
	n := f.Node(0)
	m.Put(n, 5, 0)
	if v, ok := m.Get(n, 5); !ok || v != 0 {
		t.Fatalf("Get = %d,%v (zero values must be distinguishable from absent)", v, ok)
	}
}

func TestHashMapInvalidKeysPanics(t *testing.T) {
	f := rack(t, 1, 4)
	m := NewHashMap(f, 8)
	n := f.Node(0)
	for _, key := range []uint64{0, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("key %#x should panic", key)
				}
			}()
			m.Put(n, key, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("huge value should panic")
			}
		}()
		m.Put(n, 1, 1<<63)
	}()
}

func TestHashMapProbeChainAfterTombstone(t *testing.T) {
	f := rack(t, 1, 4)
	m := NewHashMap(f, 8)
	n := f.Node(0)
	// Insert several keys, delete one in the middle of probe chains, and
	// verify the others stay reachable.
	keys := []uint64{1, 2, 3, 4, 5, 6}
	for _, k := range keys {
		m.Put(n, k, k*10)
	}
	m.Delete(n, 3)
	for _, k := range keys {
		v, ok := m.Get(n, k)
		if k == 3 {
			if ok {
				t.Fatal("deleted key reachable")
			}
			continue
		}
		if !ok || v != k*10 {
			t.Fatalf("key %d lost after tombstone (= %d,%v)", k, v, ok)
		}
	}
}

func TestHashMapConcurrentDistinctKeys(t *testing.T) {
	const nodes, perNode = 4, 250
	f := rack(t, nodes, 8)
	m := NewHashMap(f, nodes*perNode*2)
	var wg sync.WaitGroup
	for w := 0; w < nodes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := f.Node(w)
			for i := 0; i < perNode; i++ {
				key := uint64(w*perNode+i) + 1
				m.Put(n, key, key*3)
			}
		}(w)
	}
	wg.Wait()
	n := f.Node(0)
	if m.Len(n) != nodes*perNode {
		t.Fatalf("Len = %d, want %d", m.Len(n), nodes*perNode)
	}
	for k := uint64(1); k <= nodes*perNode; k++ {
		if v, ok := m.Get(n, k); !ok || v != k*3 {
			t.Fatalf("key %d = %d,%v", k, v, ok)
		}
	}
	count := 0
	m.Range(n, func(k, v uint64) bool { count++; return true })
	if count != nodes*perNode {
		t.Fatalf("Range visited %d", count)
	}
}

func TestHashMapConcurrentSameKeyPutWins(t *testing.T) {
	f := rack(t, 2, 4)
	m := NewHashMap(f, 16)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := f.Node(w)
			for i := 0; i < 200; i++ {
				m.Put(n, 42, uint64(w+1))
			}
		}(w)
	}
	wg.Wait()
	v, ok := m.Get(f.Node(0), 42)
	if !ok || (v != 1 && v != 2) {
		t.Fatalf("final = %d,%v", v, ok)
	}
	if m.Len(f.Node(0)) != 1 {
		t.Fatalf("Len = %d", m.Len(f.Node(0)))
	}
}

func TestHashMapQuickVsModelMap(t *testing.T) {
	f := rack(t, 1, 8)
	m := NewHashMap(f, 1<<12)
	n := f.Node(0)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		key := uint64(rng.Intn(200)) + 1
		switch rng.Intn(3) {
		case 0, 1:
			val := uint64(rng.Intn(1000))
			m.Put(n, key, val)
			model[key] = val
		case 2:
			_, gotOK := m.Delete(n, key)
			_, wantOK := model[key]
			if gotOK != wantOK {
				t.Fatalf("step %d: Delete(%d) ok=%v want %v", i, key, gotOK, wantOK)
			}
			delete(model, key)
		}
		if uint64(len(model)) != m.Len(n) {
			t.Fatalf("step %d: Len=%d model=%d", i, m.Len(n), len(model))
		}
	}
	for k, want := range model {
		if v, ok := m.Get(n, k); !ok || v != want {
			t.Fatalf("key %d = %d,%v want %d", k, v, ok, want)
		}
	}
}

// --- Rings ---

func TestSPSCRingCrossNodeIntegrity(t *testing.T) {
	f := rack(t, 2, 8)
	r := NewSPSCRing(f, 8, 256)
	const msgs = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := f.Node(0)
		for i := 0; i < msgs; i++ {
			msg := make([]byte, 1+i%200)
			if len(msg) >= 4 {
				binary.LittleEndian.PutUint32(msg, uint32(i))
			} else {
				msg[0] = byte(i)
			}
			for j := 4; j < len(msg); j++ {
				msg[j] = byte(i)
			}
			r.Push(n, msg)
		}
	}()
	n := f.Node(1)
	buf := make([]byte, 256)
	for i := 0; i < msgs; i++ {
		ln := r.Pop(n, buf)
		want := 1 + i%200
		if ln != want {
			t.Fatalf("msg %d: len=%d want %d", i, ln, want)
		}
		if ln >= 4 {
			if got := binary.LittleEndian.Uint32(buf); got != uint32(i) {
				t.Fatalf("msg %d: header=%d", i, got)
			}
			for j := 4; j < ln; j++ {
				if buf[j] != byte(i) {
					t.Fatalf("msg %d: corrupt byte %d", i, j)
				}
			}
		}
	}
	wg.Wait()
	if r.Len(f.Node(0)) != 0 {
		t.Fatal("ring not drained")
	}
}

func TestSPSCRingFullAndEmpty(t *testing.T) {
	f := rack(t, 1, 4)
	r := NewSPSCRing(f, 2, 16)
	n := f.Node(0)
	buf := make([]byte, 16)
	if _, ok := r.TryPop(n, buf); ok {
		t.Fatal("pop from empty succeeded")
	}
	if !r.TryPush(n, []byte("a")) || !r.TryPush(n, []byte("b")) {
		t.Fatal("pushes to empty ring failed")
	}
	if r.TryPush(n, []byte("c")) {
		t.Fatal("push to full ring succeeded")
	}
	if ln, ok := r.TryPop(n, buf); !ok || string(buf[:ln]) != "a" {
		t.Fatalf("pop = %q,%v", buf[:ln], ok)
	}
	if !r.TryPush(n, []byte("c")) {
		t.Fatal("push after pop failed")
	}
}

func TestSPSCRingOversizedPanics(t *testing.T) {
	f := rack(t, 1, 4)
	r := NewSPSCRing(f, 2, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized message should panic")
		}
	}()
	r.TryPush(f.Node(0), make([]byte, int(r.MsgMax())+1))
}

func TestMPSCRingMultipleProducers(t *testing.T) {
	const producers, perProducer = 4, 200
	f := rack(t, producers+1, 8)
	r := NewMPSCRing(f, f.Node(0), 16, 64)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := f.Node(w + 1)
			var msg [12]byte
			for i := 0; i < perProducer; i++ {
				binary.LittleEndian.PutUint32(msg[:], uint32(w))
				binary.LittleEndian.PutUint64(msg[4:], uint64(i))
				r.Push(n, msg[:])
			}
		}(w)
	}
	consumer := f.Node(0)
	buf := make([]byte, 64)
	next := make([]uint64, producers)
	for got := 0; got < producers*perProducer; got++ {
		ln := popMPSC(r, consumer, buf)
		if ln != 12 {
			t.Fatalf("message %d: len %d", got, ln)
		}
		w := binary.LittleEndian.Uint32(buf)
		seq := binary.LittleEndian.Uint64(buf[4:])
		if seq != next[w] {
			t.Fatalf("producer %d out of order: got %d want %d", w, seq, next[w])
		}
		next[w]++
	}
	wg.Wait()
}

// popMPSC dequeues one message from r, yielding while it is empty.
func popMPSC(r *MPSCRing, n *fabric.Node, buf []byte) int {
	for {
		if ln, ok := r.TryPop(n, buf); ok {
			return ln
		}
		runtime.Gosched()
	}
}

func ExampleHashMap() {
	f := fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: 2})
	m := NewHashMap(f, 64)
	m.Put(f.Node(0), 42, 7)
	v, ok := m.Get(f.Node(1), 42) // visible from any node, no coherence needed
	fmt.Println(v, ok)
	// Output: 7 true
}
