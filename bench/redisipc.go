package main

import (
	"bytes"
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/loadgen"
	"flacos/internal/netstack"
	"flacos/internal/redis"
)

// redisIPCConfig sizes the paper's Fig. 4 loop: a mini-Redis over a
// private store on node 0, one client on node 1, alternating SET and GET.
type redisIPCConfig struct {
	valueBytes int // nominal; value sizes run from half to one and a half times it
	keys       int
	ops        int // measured ops, half SET half GET
	tcp        bool
}

// tracedConn records a transport span around every Send and Recv, so the
// transport's cost is a child of the redis.Client call that caused it.
type tracedConn struct {
	redis.Conn
	tr         *tracer
	send, recv *spanKind
}

func (c *tracedConn) Send(msg []byte) error {
	c.tr.begin(c.send)
	err := c.Conn.Send(msg)
	c.tr.end(c.send)
	return err
}

func (c *tracedConn) Recv(buf []byte) (int, error) {
	c.tr.begin(c.recv)
	n, err := c.Conn.Recv(buf)
	c.tr.end(c.recv)
	return n, err
}

// connect joins node 1 (client) to node 0 (server) over FlacOS IPC rings
// or the simulated TCP stack. Accept has to run beside Connect, so set-up
// borrows one goroutine; it has ended before connect returns.
func connect(f *fabric.Fabric, tcp bool) (cli, srv redis.Conn) {
	accepted := make(chan redis.Conn)
	if tcp {
		nw := netstack.New(netstack.DefaultTCP())
		l, err := nw.Listen(f.Node(0), "10.0.0.1:6379")
		if err != nil {
			panic(err)
		}
		go func() {
			c, err := l.Accept()
			if err != nil {
				panic(err)
			}
			accepted <- c
		}()
		c, err := nw.Dial(f.Node(1), "10.0.0.1:6379")
		if err != nil {
			panic(err)
		}
		return c, <-accepted
	}
	sb := ipc.NewSwitchboard(f, f.Node(0), ipc.Config{MaxConns: 2, MaxListeners: 1, RingSlots: 8, MsgMax: 64 << 10})
	l, err := sb.Endpoint(f.Node(0)).Bind("redis")
	if err != nil {
		panic(err)
	}
	go func() { accepted <- l.Accept() }()
	c, err := sb.Endpoint(f.Node(1)).Connect("redis")
	if err != nil {
		panic(err)
	}
	return c, <-accepted
}

// runRedisIPC is one repetition. Output check: a shadow map of the value
// last SET under every key, compared byte for byte with every GET.
func runRedisIPC(cfg redisIPCConfig, seed uint64, tr *tracer) *rep {
	m := startRep(tr)
	layer := "ipc"
	if cfg.tcp {
		layer = "netstack"
	}
	kSend, kRecv := tr.kind(layer, "send"), tr.kind(layer, "recv")
	kClient, kExec := tr.kind("redis", "client"), tr.kind("redis", "exec")

	// Inputs, all from the seed: a pool of values and the key and value of
	// every op. The pool's sizes are a fixed ladder of nine steps from half
	// to one and a half times the nominal size; only which op carries which
	// value is drawn. Nine, so that the middle step holds the median op with
	// a ninth of the ops to spare on either side: on a finer ladder every
	// cache line of payload is a cost level of its own, and the median flips
	// between neighbouring levels with the seed.
	r := loadgen.NewRand(seed)
	pool := make([][]byte, 256)
	for i := range pool {
		pool[i] = make([]byte, cfg.valueBytes/2+i*9/len(pool)*cfg.valueBytes/8)
		for j := range pool[i] {
			pool[i][j] = byte(r.Uint64())
		}
	}
	names := make([]string, cfg.keys)
	for i := range names {
		names[i] = fmt.Sprintf("key:%d", i)
	}
	type kvOp struct{ key, val int } // val < 0: GET
	warm := cfg.keys                 // every key is SET once before timing
	ops := make([]kvOp, warm+cfg.ops)
	for i := range ops {
		switch {
		case i < warm:
			ops[i] = kvOp{i, r.Intn(len(pool))}
		case i%2 == 0:
			ops[i] = kvOp{r.Intn(cfg.keys), r.Intn(len(pool))}
		default:
			ops[i] = kvOp{r.Intn(cfg.keys), -1}
		}
	}

	f := fabric.New(fabric.Config{GlobalSize: 16 << 20, Nodes: 2, Latency: fabric.DefaultLatency()})
	cliConn, srvConn := connect(f, cfg.tcp)
	if tr != nil {
		cliConn = &tracedConn{cliConn, tr, kSend, kRecv}
		srvConn = &tracedConn{srvConn, tr, kSend, kRecv}
	}
	cl := redis.NewClient(cliConn, 128<<10)
	srv := redis.NewServer(redis.NewStore())
	srvBuf := make([]byte, 128<<10)
	shadow := make([]int, cfg.keys)

	// issue runs one op in lockstep: the client sends, the server is
	// stepped inline, the client receives. No poll ever goes unanswered.
	serve := func() {
		n, err := srvConn.Recv(srvBuf)
		if err != nil {
			panic(err)
		}
		tr.begin(kExec)
		reply := srv.Execute(srvBuf[:n])
		tr.end(kExec)
		if err := srvConn.Send(reply); err != nil {
			panic(err)
		}
	}
	// A send that fails leaves the lockstep with nobody to answer, so it
	// panics; a reply that is wrong or an error fails the op.
	send := func(err error) {
		tr.end(kClient)
		if err != nil {
			panic(err)
		}
		serve()
		tr.begin(kClient)
	}
	issue := func(op kvOp) (ok bool) {
		tr.begin(kClient)
		defer tr.end(kClient)
		if op.val >= 0 {
			send(cl.SendSet(names[op.key], pool[op.val]))
			shadow[op.key] = op.val
			return cl.FinishSet() == nil
		}
		send(cl.SendGet(names[op.key]))
		got, found, err := cl.FinishGet()
		return err == nil && found && bytes.Equal(got, pool[shadow[op.key]])
	}

	for _, op := range ops[:warm] {
		if !issue(op) {
			panic("bench: redis-ipc preload failed")
		}
	}
	if plantFault {
		for k := range shadow {
			shadow[k] = (shadow[k] + 1) % len(pool)
		}
	}
	m.layer["warmup_ops"] = float64(warm)
	m.measure(f, [][]int{{0, 1}}, cfg.ops/2+1, cfg.ops/2+1)
	for _, op := range ops[warm:] {
		class := classRead
		if op.val >= 0 {
			class = classWrite
		}
		m.begin()
		ok := issue(op)
		m.end(class, 0, ok)
	}
	return m.finish()
}
