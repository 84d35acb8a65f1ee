package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/core"
	"flacos/internal/ipc"
	"flacos/internal/metrics"
	"flacos/internal/redis"
)

// RedisRackConfig parameterizes the rack-shared Redis serving ablation.
type RedisRackConfig struct {
	// Batches is rounds per client per throughput phase.
	Batches int
	// LatencyOps is rounds per latency configuration.
	LatencyOps int
}

// DefaultRedisRack is the acceptance setup.
func DefaultRedisRack() RedisRackConfig { return RedisRackConfig{Batches: 300, LatencyOps: 200} }

// QuickRedisRack is the CI-sized run.
func QuickRedisRack() RedisRackConfig { return RedisRackConfig{Batches: 80, LatencyOps: 60} }

// The rack: 2 serving nodes run Redis servers over views of ONE shared
// store; 4 client goroutines, each with its own connection and private
// key range, live on 2 separate client nodes so client-side virtual cost
// is identical across modes.
const (
	rrServeNodes    = 2
	rrClientNodes   = 2
	rrClients       = 4
	rrBatchSize     = 16 // commands pipelined per round trip
	rrValueBytes    = 128
	rrKeysPerClient = 64
	// rrSpeedupGate is the multi/single serving-node throughput gate.
	rrSpeedupGate = 1.5
)

// RedisRack measures the rack-shared Redis store serving ONE dataset from
// every node (the paper's Fig. 4 workload on the shared-OS substrate):
//
//   - Latency: per-op round-trip cost serial vs pipelined (the batch
//     amortization the tentpole adds to client and server).
//   - Throughput: the same client fleet driving 1 serving node vs all
//     serving nodes. The store is in the global arena, so adding server
//     nodes divides the serving work without any replication or routing
//     by key — the makespan (max per-node virtual time) drops.
//   - Integrity: a hot key written by one client through node 0 and read
//     by the others through other nodes; every observed GET must be
//     fresh (not older than the last flush-acknowledged write), intact
//     (never torn) and monotone (never going backwards). Private keys
//     are single-writer and every GET must return exactly the last
//     acknowledged SET.
//
// It fails on any stale/torn/backwards/mismatched read, or a multi-node
// speedup below rrSpeedupGate.
func RedisRack(cfg RedisRackConfig) *Result {
	res := newResult("Rack-shared Redis: one arena-resident dataset served from every node",
		"phase", "config", "metric", "value")

	rack := core.Boot(core.Config{
		Nodes: rrServeNodes + rrClientNodes,
		// A whole pipelined batch fits one IPC message with room for RESP
		// overhead; connection slots cover both throughput modes plus the
		// latency session.
		IPC: ipc.Config{
			MsgMax:       rrBatchSize*(rrValueBytes+96) + 4096,
			MaxConns:     2*rrClients + 4,
			MaxListeners: 2*rrClients + 4,
		},
	})
	defer rack.Shutdown()

	// Phase 1: lockstep latency, serial vs pipelined.
	serialH := redisRackLatency(rack, cfg, 1)
	pipeH := redisRackLatency(rack, cfg, rrBatchSize)
	for _, row := range []struct {
		name string
		h    *metrics.Histogram
	}{{"batch=1", serialH}, {fmt.Sprintf("batch=%d", rrBatchSize), pipeH}} {
		s := row.h.Summarize()
		res.Table.AddRow("latency", row.name, "per-op mean/p50/p99",
			fmt.Sprintf("%s / %s / %s", ns(s.Mean), ns(s.P50), ns(s.P99)))
	}
	if m := pipeH.Mean(); m > 0 {
		res.Ratios["serial/pipelined per-op latency"] = serialH.Mean() / m
	}

	// Phases 2+3: throughput and integrity, 1 vs N serving nodes.
	single := redisRackServe(rack, cfg, 1)
	multi := redisRackServe(rack, cfg, rrServeNodes)
	for _, m := range []*serveOutcome{single, multi} {
		config := fmt.Sprintf("%d server node(s)", m.serveNodes)
		res.Table.AddRow("throughput", config, "ops/s (virtual)", fmt.Sprintf("%.0f", m.opsPerSec))
		res.Table.AddRow("throughput", config, "makespan", ns(float64(m.makespanNS)))
		res.Table.AddRow("integrity", config, "stale/torn/backwards/mismatch",
			fmt.Sprintf("%d / %d / %d / %d", m.stale, m.torn, m.backwards, m.mismatch))
		if v := m.stale + m.torn + m.backwards + m.mismatch; v > 0 {
			res.Fail("%s: %d stale/torn/backwards/mismatched reads", config, v)
		}
	}
	speedup := ratio(multi.opsPerSec, single.opsPerSec)
	res.Ratios["multi/single node throughput"] = speedup
	if speedup < rrSpeedupGate {
		res.Fail("%d serving nodes reached %.2fx one node's throughput, want >= %.1fx", rrServeNodes, speedup, rrSpeedupGate)
	}

	ps := pipeH.Summarize()
	res.Bench = &Bench{
		Name:      "redisrack",
		OpsPerSec: multi.opsPerSec,
		P50NS:     ps.P50,
		P99NS:     ps.P99,
	}
	return res
}

// redisRackLatency runs one lockstep client against one server session on
// node 0 and returns the per-op virtual latency histogram at the given
// pipeline depth (each sample is one round trip's rack cost divided by
// the batch size).
func redisRackLatency(rack *core.Rack, cfg RedisRackConfig, batch int) *metrics.Histogram {
	f := rack.Fabric
	sess, cl, closeAll := redisRackConnect(rack, "redis-lat", 0, rrServeNodes)
	defer closeAll()

	h := metrics.NewHistogram()
	value := patternValue(0, "warm", 1, rrValueBytes)
	rackNS := func() uint64 { return f.RackStats().VirtualNS }
	for op := 0; op < cfg.LatencyOps; op++ {
		before := rackNS()
		for r := 0; r < batch; r++ {
			key := fmt.Sprintf("lat-%d", (op*batch+r)%rrKeysPerClient)
			if (op+r)%2 == 0 {
				cl.PipeSet(key, value, 0)
			} else {
				cl.PipeGet(key)
			}
		}
		n, err := cl.FlushSend()
		if err != nil {
			panic(err)
		}
		sess.serveOne()
		if _, err := cl.FlushRecv(n); err != nil {
			panic(err)
		}
		h.Record(float64(rackNS()-before) / float64(batch))
	}
	return h
}

// serveOutcome is one throughput phase's measurements.
type serveOutcome struct {
	serveNodes int
	opsPerSec  float64
	makespanNS uint64
	stale      int
	torn       int
	backwards  int
	mismatch   int
}

// session is one server-side connection: a Server over its own view of
// the shared store, executing one pipelined batch per round.
type session struct {
	srv  *redis.Server
	view *redis.View
	conn redis.Conn
	buf  []byte
	out  []byte
}

func (s *session) serveOne() {
	n, err := s.conn.Recv(s.buf)
	if err != nil {
		panic(err)
	}
	s.out = s.srv.ExecuteBatch(s.out[:0], s.buf[:n])
	if err := s.conn.Send(s.out); err != nil {
		panic(err)
	}
}

// redisRackConnect establishes one client connection (listener name is
// unique per mode+client) from clientNode to a server session on node
// srvNode.
func redisRackConnect(rack *core.Rack, name string, srvNode, clientNode int) (*session, *redis.Client, func()) {
	sconn, cconn, closeAll := ipcPair(rack.OS(srvNode).Endpoint, rack.OS(clientNode).Endpoint, name)
	view := rack.OS(srvNode).RedisView()
	sess := &session{
		srv:  redis.NewServer(view),
		view: view,
		conn: sconn,
		buf:  make([]byte, 256<<10),
	}
	return sess, redis.NewClient(cconn, 256<<10), closeAll
}

// patternValue builds a self-checking payload: 8 bytes of sequence
// followed by bytes derived from (seq, key, salt). A torn read — any mix
// of two payloads — fails the byte check.
func patternValue(seq uint64, key string, salt byte, size int) []byte {
	if size < 9 {
		size = 9
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, seq)
	for i := 8; i < size; i++ {
		v[i] = byte(uint64(i)+seq) ^ byte(len(key)) ^ salt
	}
	return v
}

// checkPattern validates a payload against patternValue's construction,
// returning the sequence it carries and whether every byte is consistent
// with it.
func checkPattern(v []byte, key string, salt byte) (seq uint64, intact bool) {
	if len(v) < 9 {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(v)
	for i := 8; i < len(v); i++ {
		if v[i] != byte(uint64(i)+seq)^byte(len(key))^salt {
			return seq, false
		}
	}
	return seq, true
}

// redisRackServe runs the full client fleet against serveNodes servers in
// barriered rounds (queue+send, serve, receive+check): no connection ever
// spin-waits, so per-node virtual time is pure work and the phase
// makespan — the maximum per-node virtual time — is an honest serving-
// capacity measure.
func redisRackServe(rack *core.Rack, cfg RedisRackConfig, serveNodes int) *serveOutcome {
	f := rack.Fabric
	mode := fmt.Sprintf("serve%d", serveNodes)
	hotKey := "hot-" + mode

	type clientState struct {
		cl       *redis.Client
		sess     *session
		lastVal  map[string][]byte
		setCount map[string]uint64
		expect   []func(v redis.Value) // reply checkers, queue order
		pending  int

		hotSeq     uint64 // writer: last queued hot sequence
		floorAtTx  uint64 // reader: floor loaded before FlushSend
		lastHotSeq uint64 // reader: monotonicity floor
	}

	var floor atomic.Uint64 // hot sequences acknowledged to the writer
	out := &serveOutcome{serveNodes: serveNodes}
	var viol struct {
		sync.Mutex
		stale, torn, backwards, mismatch int
	}

	clients := make([]*clientState, rrClients)
	closers := make([]func(), 0, rrClients)
	for j := range clients {
		sess, cl, cl0 := redisRackConnect(rack, fmt.Sprintf("redis-%s-%d", mode, j),
			j%serveNodes, rrServeNodes+j%rrClientNodes)
		closers = append(closers, cl0)
		clients[j] = &clientState{
			cl:       cl,
			sess:     sess,
			lastVal:  map[string][]byte{},
			setCount: map[string]uint64{},
		}
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()

	// Per-round client steps. Queue/check run in parallel across clients;
	// rounds are barriered so a flush-acknowledged write is fully applied
	// before any later round's reads are served.
	queue := func(j int, c *clientState, b int) {
		c.expect = c.expect[:0]
		for r := 0; r < rrBatchSize; r++ {
			if j == 0 && r == rrBatchSize-1 {
				// The hot writer: one hot SET per round, last in the batch.
				c.hotSeq++
				c.cl.PipeSet(hotKey, patternValue(c.hotSeq, hotKey, 7, rrValueBytes), 0)
				c.expect = append(c.expect, expectOK(&viol.Mutex, &viol.mismatch))
				continue
			}
			if j != 0 && r == 0 {
				// Hot readers: one hot GET per round, first in the batch,
				// with the freshness floor loaded before transmission.
				c.floorAtTx = floor.Load()
				c.cl.PipeGet(hotKey)
				fl, last := c.floorAtTx, c.lastHotSeq
				c.expect = append(c.expect, func(v redis.Value) {
					var seq uint64
					intact := false
					if v.Bulk != nil {
						seq, intact = checkPattern(v.Bulk, hotKey, 7)
					}
					viol.Lock()
					switch {
					case v.Bulk == nil:
						if fl > 0 {
							viol.stale++ // an acknowledged write vanished
						}
					case !intact:
						viol.torn++
					case seq < fl:
						viol.stale++
					case seq < last:
						viol.backwards++
					}
					viol.Unlock()
					if seq > c.lastHotSeq {
						c.lastHotSeq = seq
					}
				})
				continue
			}
			// Private single-writer keys: every GET must return exactly the
			// last SET this client flushed or queued earlier in this batch.
			opIdx := b*rrBatchSize + r
			key := fmt.Sprintf("k-%s-%d-%d", mode, j, opIdx%rrKeysPerClient)
			if c.setCount[key] == 0 || opIdx%2 == 0 {
				c.setCount[key]++
				val := patternValue(c.setCount[key], key, byte(j), rrValueBytes)
				c.cl.PipeSet(key, val, 0)
				c.lastVal[key] = val
				c.expect = append(c.expect, expectOK(&viol.Mutex, &viol.mismatch))
			} else {
				want := c.lastVal[key]
				c.cl.PipeGet(key)
				c.expect = append(c.expect, func(v redis.Value) {
					if v.Bulk == nil || !bytes.Equal(v.Bulk, want) {
						viol.Lock()
						viol.mismatch++
						viol.Unlock()
					}
				})
			}
		}
		n, err := c.cl.FlushSend()
		if err != nil {
			panic(err)
		}
		c.pending = n
	}
	check := func(j int, c *clientState) {
		replies, err := c.cl.FlushRecv(c.pending)
		if err != nil {
			panic(err)
		}
		for i, v := range replies {
			c.expect[i](v)
		}
		if j == 0 {
			floor.Store(c.hotSeq) // round barrier: the whole batch is applied
		}
	}

	mark := markClocks(f, rack.Nodes())
	for b := 0; b < cfg.Batches; b++ {
		fanOut(rrClients, func(j int) { queue(j, clients[j], b) })
		fanOut(rrClients, func(j int) { clients[j].sess.serveOne() })
		fanOut(rrClients, func(j int) { check(j, clients[j]) })
	}
	_, out.makespanNS = mark.since(f)
	out.opsPerSec = opsPerSec(rrClients*cfg.Batches*rrBatchSize, out.makespanNS)
	out.stale = viol.stale
	out.torn = viol.torn
	out.backwards = viol.backwards
	out.mismatch = viol.mismatch
	for _, c := range clients {
		c.sess.view.Barrier() // reclaim this phase's replaced blocks
	}
	return out
}

// expectOK returns a checker that counts any non-OK SET reply as a
// mismatch.
func expectOK(mu *sync.Mutex, counter *int) func(v redis.Value) {
	return func(v redis.Value) {
		if v.IsError() || v.Str != "OK" {
			mu.Lock()
			*counter++
			mu.Unlock()
		}
	}
}
