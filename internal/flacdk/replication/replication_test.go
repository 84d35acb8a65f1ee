package replication

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flacos/internal/fabric"
)

// counterSM is a trivial replicated state machine: op 1 adds the payload's
// first 8 bytes to the counter; Apply returns the counter's new value.
type counterSM struct{ v uint64 }

func (c *counterSM) Apply(op uint32, payload []byte) uint64 {
	if op == 1 {
		c.v += binary.LittleEndian.Uint64(payload)
	}
	return c.v
}

// kvSM is a replicated string->uint64 map: op 1 = put (payload: 8-byte value
// + key bytes), op 2 = delete (payload: key bytes). Apply returns the
// previous value.
type kvSM struct{ m map[string]uint64 }

func newKV() *kvSM { return &kvSM{m: make(map[string]uint64)} }

func (k *kvSM) Apply(op uint32, payload []byte) uint64 {
	switch op {
	case 1:
		val := binary.LittleEndian.Uint64(payload)
		key := string(payload[8:])
		prev := k.m[key]
		k.m[key] = val
		return prev
	case 2:
		key := string(payload)
		prev := k.m[key]
		delete(k.m, key)
		return prev
	}
	return 0
}

func putPayload(key string, v uint64) []byte {
	p := make([]byte, 8+len(key))
	binary.LittleEndian.PutUint64(p, v)
	copy(p[8:], key)
	return p
}

func rack(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: 4 << 20, Nodes: nodes})
}

func TestExecuteAndConvergence(t *testing.T) {
	f := rack(t, 2)
	log := NewLog(f, 64)
	r0 := log.Replica(f.Node(0), &counterSM{})
	r1 := log.Replica(f.Node(1), &counterSM{})

	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], 5)
	if got := r0.Execute(1, buf[:]); got != 5 {
		t.Fatalf("Execute result = %d, want 5", got)
	}
	binary.LittleEndian.PutUint64(buf[:], 3)
	if got := r1.Execute(1, buf[:]); got != 8 {
		t.Fatalf("Execute on node 1 = %d, want 8 (must see node 0's op)", got)
	}
	// Node 0 hasn't replayed node 1's op yet; a local read may be stale,
	// a linearizable read must not be.
	r0.ReadLinearizable(func(sm StateMachine) {
		if v := sm.(*counterSM).v; v != 8 {
			t.Fatalf("linearizable read = %d, want 8", v)
		}
	})
}

func TestReadLocalMayBeStaleUntilSync(t *testing.T) {
	f := rack(t, 2)
	log := NewLog(f, 64)
	r0 := log.Replica(f.Node(0), &counterSM{})
	r1 := log.Replica(f.Node(1), &counterSM{})

	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], 7)
	r0.Execute(1, buf[:])

	r1.ReadLocal(func(sm StateMachine) {
		if v := sm.(*counterSM).v; v != 0 {
			t.Fatalf("stale local read = %d, want 0 before Sync", v)
		}
	})
	r1.Sync()
	r1.ReadLocal(func(sm StateMachine) {
		if v := sm.(*counterSM).v; v != 7 {
			t.Fatalf("local read after Sync = %d, want 7", v)
		}
	})
	if r1.AppliedIndex() != 1 {
		t.Fatalf("AppliedIndex = %d", r1.AppliedIndex())
	}
}

func TestConcurrentExecutorsAllNodesConverge(t *testing.T) {
	const nodes, perNode = 4, 300
	f := rack(t, nodes)
	log := NewLog(f, 128) // force many wraps
	reps := make([]*Replica, nodes)
	for i := range reps {
		reps[i] = log.Replica(f.Node(i), &counterSM{})
	}
	var wg sync.WaitGroup
	var finished atomic.Int32
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], 1)
			for j := 0; j < perNode; j++ {
				r.Execute(1, buf[:])
			}
			// A replica that stops executing must keep syncing, or the log
			// cannot recycle past it (the same liveness requirement node
			// replication has); workers finish at different times, so each
			// syncs until all are done.
			finished.Add(1)
			for finished.Load() < nodes {
				r.Sync()
				runtime.Gosched()
			}
		}(reps[i])
	}
	wg.Wait()
	want := uint64(nodes * perNode)
	for i, r := range reps {
		r.ReadLinearizable(func(sm StateMachine) {
			if v := sm.(*counterSM).v; v != want {
				t.Fatalf("node %d converged to %d, want %d", i, v, want)
			}
		})
	}
}

func TestKVReplicationAcrossNodes(t *testing.T) {
	f := rack(t, 3)
	log := NewLog(f, 64)
	reps := make([]*Replica, 3)
	for i := range reps {
		reps[i] = log.Replica(f.Node(i), newKV())
	}
	reps[0].Execute(1, putPayload("alpha", 10))
	reps[1].Execute(1, putPayload("beta", 20))
	if prev := reps[2].Execute(1, putPayload("alpha", 30)); prev != 10 {
		t.Fatalf("put returned prev = %d, want 10", prev)
	}
	reps[0].Execute(2, []byte("beta"))
	for i, r := range reps {
		r.ReadLinearizable(func(sm StateMachine) {
			kv := sm.(*kvSM)
			if kv.m["alpha"] != 30 {
				t.Fatalf("node %d alpha = %d", i, kv.m["alpha"])
			}
			if _, ok := kv.m["beta"]; ok {
				t.Fatalf("node %d still has beta", i)
			}
		})
	}
}

func TestLogWrapRecyclesSlots(t *testing.T) {
	f := rack(t, 2)
	log := NewLog(f, 8) // tiny: every 8 appends wrap
	r0 := log.Replica(f.Node(0), &counterSM{})
	r1 := log.Replica(f.Node(1), &counterSM{})

	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], 1)
	for i := 0; i < 100; i++ {
		r0.Execute(1, buf[:])
		r1.Sync() // r1 only reads: it must sync for the log to recycle past it
	}
	r0.ReadLinearizable(func(sm StateMachine) {
		if v := sm.(*counterSM).v; v != 100 {
			t.Fatalf("counter = %d, want 100", v)
		}
	})
	if log.Capacity() != 8 {
		t.Fatalf("Capacity = %d", log.Capacity())
	}
}

func TestPayloadTooLargePanics(t *testing.T) {
	f := rack(t, 1)
	log := NewLog(f, 16)
	r := log.Replica(f.Node(0), &counterSM{})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized payload should panic")
		}
	}()
	r.Execute(1, make([]byte, PayloadMax+1))
}

func TestEmptyPayloadOp(t *testing.T) {
	f := rack(t, 2)
	log := NewLog(f, 16)
	sm0 := &countOpsSM{}
	r0 := log.Replica(f.Node(0), sm0)
	r1 := log.Replica(f.Node(1), &countOpsSM{})
	r0.Execute(9, nil)
	r1.ReadLinearizable(func(sm StateMachine) {
		if sm.(*countOpsSM).n != 1 {
			t.Fatal("empty-payload op not replicated")
		}
	})
}

type countOpsSM struct{ n int }

func (c *countOpsSM) Apply(op uint32, payload []byte) uint64 {
	c.n++
	return uint64(c.n)
}

func TestReadLinearizableSeesOwnNodeConcurrentWrites(t *testing.T) {
	// A writer goroutine and reader goroutine on different nodes: every
	// linearizable read must observe a monotonically non-decreasing counter.
	f := rack(t, 2)
	log := NewLog(f, 64)
	w := log.Replica(f.Node(0), &counterSM{})
	r := log.Replica(f.Node(1), &counterSM{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], 1)
		for i := 0; i < 200; i++ {
			w.Execute(1, buf[:])
		}
	}()
	var last uint64
	for {
		select {
		case <-done:
			r.ReadLinearizable(func(sm StateMachine) {
				if v := sm.(*counterSM).v; v != 200 {
					t.Errorf("final = %d, want 200", v)
				}
			})
			return
		default:
		}
		r.ReadLinearizable(func(sm StateMachine) {
			v := sm.(*counterSM).v
			if v < last {
				t.Fatalf("linearizable read went backwards: %d < %d", v, last)
			}
			last = v
		})
	}
}
