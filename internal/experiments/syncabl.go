package experiments

import (
	"encoding/binary"
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/delegation"
	"flacos/internal/flacdk/dksync"
	"flacos/internal/flacdk/quiescence"
	"flacos/internal/flacdk/replication"
)

// SyncConfig parameterizes ablation A.
type SyncConfig struct {
	Ops        int
	NodeCounts []int
}

// DefaultSync sweeps node counts and read mixes.
func DefaultSync() SyncConfig { return SyncConfig{Ops: 4000, NodeCounts: []int{2, 4, 8}} }

// QuickSync is the CI-sized run.
func QuickSync() SyncConfig { return SyncConfig{Ops: 800, NodeCounts: []int{2, 4, 8}} }

// syncReadPcts are the read mixes swept: update-only and read-mostly.
var syncReadPcts = []int{0, 90}

// SyncAblation quantifies §3.2's claim: lock-based synchronization is
// ineffective on non-coherent rack memory, while FlacDK's replication,
// delegation and quiescence methods stay cheap.
//
// Workload: a sharded counter structure (one shard per node) driven from
// every node. The methods differ exactly as the paper describes:
//
//   - lock-based guards the WHOLE structure with one global lock; every
//     section pays lock atomics plus invalidate-on-entry / flush-on-exit
//     of the touched data, and contending nodes serialize. The harness
//     runs deterministically and models contention with a serialization
//     surcharge: the i'th concurrent contender of a round is charged i
//     times the measured critical-section cost, the virtual time it would
//     have spent spinning.
//   - fabric atomics are the per-shard lower bound (counters only).
//   - replication reads its node-local replica for free and pays log
//     append + rack-wide replay for updates.
//   - delegation partitions by design: shard i's owner is node i; clients
//     pay one slot round trip, owners touch only local memory.
//   - quiescence reads a version pointer wait-free and publishes new
//     versions on update.
//
// Cost = summed virtual ns across all nodes / ops.
func SyncAblation(cfg SyncConfig) *Result {
	res := newResult("Ablation A: synchronization methods on non-coherent memory (sharded counters)",
		"method", "nodes", "read%", "ns/op")
	type key struct {
		method string
		nodes  int
		reads  int
	}
	costs := map[key]float64{}
	methods := []string{"lock-based", "fabric-atomics", "replication", "delegation", "quiescence"}
	for _, nodes := range cfg.NodeCounts {
		for _, readPct := range syncReadPcts {
			for _, m := range methods {
				perOp := runSyncMethod(m, nodes, readPct, cfg.Ops)
				costs[key{m, nodes, readPct}] = perOp
				res.Table.AddRow(m, fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", readPct), fmt.Sprintf("%.0f", perOp))
			}
		}
	}
	last := cfg.NodeCounts[len(cfg.NodeCounts)-1]
	for _, readPct := range syncReadPcts {
		lock := costs[key{"lock-based", last, readPct}]
		for _, m := range []string{"replication", "delegation", "quiescence"} {
			if c := costs[key{m, last, readPct}]; c > 0 {
				res.Ratios[fmt.Sprintf("lock/%s %dn %d%%r", m, last, readPct)] = lock / c
			}
		}
	}
	return res
}

// runSyncMethod executes ops operations (readPct% reads, round-robin
// across nodes, shard chosen per op) and returns mean virtual ns per op.
func runSyncMethod(method string, nodes, readPct, ops int) float64 {
	f := fabric.New(fabric.Config{
		GlobalSize: 64 << 20,
		Nodes:      nodes,
		Latency:    fabric.DefaultLatency(),
	})
	isRead := func(i int) bool { return (i*37)%100 < readPct }
	// Shard choice decorrelated from the issuing node (which is i%nodes),
	// so delegation sees a realistic local/remote mix.
	shardOf := func(i int) int { return int(uint64(i)*2654435761>>16) % nodes }

	var do func(i int, n *fabric.Node)
	switch method {
	case "lock-based":
		// One lock guarding the whole sharded structure (8 bytes/shard).
		region := dksync.NewLockedRegion(f, uint64(nodes)*fabric.LineSize)
		do = func(i int, n *fabric.Node) {
			shard := region.Data.Add(uint64(shardOf(i)) * fabric.LineSize)
			before := n.VirtualNS()
			if isRead(i) {
				region.DoRead(n, func() { n.Load64(shard) })
			} else {
				region.Do(n, func() { n.Store64(shard, n.Load64(shard)+1) })
			}
			// Serialization surcharge: the i%nodes'th contender of this
			// round would have spun for its predecessors' sections.
			cs := n.VirtualNS() - before
			n.ChargeNS(int(cs) * (i % nodes))
		}
	case "fabric-atomics":
		base := f.Reserve(uint64(nodes)*fabric.LineSize, fabric.LineSize)
		do = func(i int, n *fabric.Node) {
			g := base.Add(uint64(shardOf(i)) * fabric.LineSize)
			if isRead(i) {
				n.AtomicLoad64(g)
			} else {
				n.Add64(g, 1)
			}
		}
	case "replication":
		log := replication.NewLog(f, 2048)
		reps := make([]*replication.Replica, nodes)
		for i := range reps {
			reps[i] = log.Replica(f.Node(i), &shardSM{v: make([]uint64, nodes)})
		}
		var payload [8]byte
		do = func(i int, n *fabric.Node) {
			r := reps[n.ID()]
			if isRead(i) {
				r.ReadLocal(func(replication.StateMachine) {}) // node-local
			} else {
				binary.LittleEndian.PutUint64(payload[:], uint64(shardOf(i)))
				r.Execute(1, payload[:])
			}
		}
	case "delegation":
		return runDelegationRounds(f, nodes, isRead, shardOf, ops)
	case "quiescence":
		dom := quiescence.NewDomain(f, nodes)
		arena := alloc.NewArena(f, 16<<20)
		parts := make([]*quiescence.Participant, nodes)
		allocs := make([]*alloc.NodeAllocator, nodes)
		for i := range parts {
			parts[i] = dom.Participant(f.Node(i), i)
			allocs[i] = arena.NodeAllocator(f.Node(i), 16)
		}
		cells := make([]*quiescence.VersionedCell, nodes)
		for s := range cells {
			cells[s] = quiescence.NewVersionedCell(f, f.Node(0), allocs[0])
		}
		buf := make([]byte, 8)
		updates := 0
		do = func(i int, n *fabric.Node) {
			p := parts[n.ID()]
			cell := cells[shardOf(i)]
			if isRead(i) {
				cell.Read(p, buf)
			} else {
				cell.Update(p, allocs[n.ID()], func(cur []byte) {
					binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+1)
				})
				// Epoch housekeeping is amortized over updates, as real
				// quiescence deployments do.
				if updates++; updates%8 == 0 {
					p.Tick()
				}
			}
		}
	default:
		panic("unknown method " + method)
	}

	for i := 0; i < ops; i++ {
		do(i, f.Node(i%nodes))
	}
	return float64(f.RackStats().VirtualNS) / float64(ops)
}

// runDelegationRounds drives the delegation method in rounds, the way a
// loaded system behaves: every node posts its pending request, each
// partition owner performs one sweep serving the whole batch (amortizing
// the packed-sequence poll), then callers collect replies.
func runDelegationRounds(f *fabric.Fabric, nodes int, isRead func(int) bool, shardOf func(int) int, ops int) float64 {
	domains := make([]*delegation.Domain, nodes)
	servers := make([]*delegation.Server, nodes)
	counters := make([]uint64, nodes) // owner-local state
	clients := make([][]*delegation.Client, nodes)
	for s := 0; s < nodes; s++ {
		s := s
		domains[s] = delegation.NewDomain(f, nodes)
		servers[s] = domains[s].Server(f.Node(s), func(op uint32, req, resp []byte) (int, uint32) {
			if op == 1 {
				counters[s]++
			}
			binary.LittleEndian.PutUint64(resp, counters[s])
			return 8, 0
		})
		clients[s] = make([]*delegation.Client, nodes)
		for c := 0; c < nodes; c++ {
			clients[s][c] = domains[s].Client(f.Node(c), c)
		}
	}
	resp := make([]byte, delegation.PayloadMax)
	rounds := ops / nodes
	done := 0
	for r := 0; r < rounds; r++ {
		type pending struct{ cl *delegation.Client }
		var waiting []pending
		for nd := 0; nd < nodes; nd++ {
			i := r*nodes + nd
			n := f.Node(nd)
			shard := shardOf(i)
			if shard == nd {
				if !isRead(i) {
					counters[shard]++
				}
				n.ChargeLocal() // owners manipulate their partition directly
				done++
				continue
			}
			op := uint32(1)
			if isRead(i) {
				op = 2
			}
			clients[shard][nd].Post(op, nil)
			waiting = append(waiting, pending{clients[shard][nd]})
			done++
		}
		for still := waiting; len(still) > 0; {
			for s := 0; s < nodes; s++ {
				servers[s].ServeOnce()
			}
			next := still[:0]
			for _, p := range still {
				if _, _, ok := p.cl.TryComplete(resp); !ok {
					next = append(next, p)
				}
			}
			still = next
		}
	}
	return float64(f.RackStats().VirtualNS) / float64(done)
}

// shardSM is the replicated sharded-counter state machine: op 1 increments
// the shard named in the payload.
type shardSM struct{ v []uint64 }

func (c *shardSM) Apply(op uint32, payload []byte) uint64 {
	if op == 1 {
		s := binary.LittleEndian.Uint64(payload)
		c.v[s]++
		return c.v[s]
	}
	return 0
}
