package experiments

import (
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/metrics"
	"flacos/internal/redis"
)

// Fig4Config parameterizes the Redis latency experiment.
type Fig4Config struct {
	Requests int
}

// DefaultFig4 matches the paper's setup: SET and GET at a small and a
// large request size, server and client on different nodes.
func DefaultFig4() Fig4Config { return Fig4Config{Requests: 2000} }

// QuickFig4 is the CI-sized run.
func QuickFig4() Fig4Config { return Fig4Config{Requests: 300} }

// fig4ValueSizes are the paper's small and large request sizes.
var fig4ValueSizes = []int{64, 4096}

// Fig4 reproduces Figure 4: Redis request latency over FlacOS IPC versus
// the TCP/IP networking baseline. Each request is driven in deterministic
// lockstep (client request, server execute, client receive) and its
// latency is the request's total virtual cost across both endpoints —
// the simulation's equivalent of the client-observed round trip, free of
// host-scheduler noise.
func Fig4(cfg Fig4Config) *Result {
	res := newResult("Figure 4: Redis SET/GET latency, FlacOS IPC vs TCP networking",
		"op", "value", "transport", "mean/req", "p99/req")
	type cell struct{ mean, p99 float64 }
	results := map[string]cell{}
	ops := []string{"set", "get"}

	for _, size := range fig4ValueSizes {
		for _, transport := range []string{"tcp", "flacos-ipc"} {
			setH, getH := runRedisPair(transport, size, cfg.Requests)
			hists := map[string]*metrics.Histogram{"set": setH, "get": getH}
			for _, op := range ops { // not the map: row order must not vary
				s := hists[op].Summarize()
				key := fmt.Sprintf("%s/%d/%s", op, size, transport)
				results[key] = cell{s.Mean, s.P99}
				res.Table.AddRow(op, fmt.Sprintf("%dB", size), transport, ns(s.Mean), ns(s.P99))
			}
		}
		for _, op := range ops {
			tcp := results[fmt.Sprintf("%s/%d/tcp", op, size)]
			flac := results[fmt.Sprintf("%s/%d/flacos-ipc", op, size)]
			if flac.mean > 0 {
				res.Ratios[fmt.Sprintf("tcp/flacos %s %dB", op, size)] = tcp.mean / flac.mean
			}
		}
	}
	return res
}

// runRedisPair runs requests SETs then GETs over one transport and returns
// their latency histograms (virtual ns on the client node).
func runRedisPair(transport string, valueSize, requests int) (setH, getH *metrics.Histogram) {
	f := fabric.New(fabric.Config{
		GlobalSize: 64 << 20,
		Nodes:      2,
		Latency:    fabric.DefaultLatency(),
	})
	serverNode, clientNode := f.Node(0), f.Node(1)
	store := redis.NewStore()
	srv := redis.NewServer(store)

	var cliConn, srvConn redis.Conn
	var cleanup func()
	switch transport {
	case "tcp":
		srvConn, cliConn, cleanup = tcpPair(serverNode, clientNode)
	case "flacos-ipc":
		sb := ipc.NewSwitchboard(f, serverNode, ipc.Config{
			MaxConns: 2, MaxListeners: 1, RingSlots: 8, MsgMax: 64 << 10,
		})
		srvConn, cliConn, cleanup = ipcPair(sb.Endpoint(serverNode), sb.Endpoint(clientNode), "redis")
	default:
		panic("unknown transport " + transport)
	}
	defer cleanup()

	cl := redis.NewClient(cliConn, 128<<10)
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte(i)
	}
	setH, getH = metrics.NewHistogram(), metrics.NewHistogram()
	rackNS := func() uint64 { return f.RackStats().VirtualNS }
	srvBuf := make([]byte, 128<<10)
	// Lockstep request loop: the client's Send lands the request in the
	// transport; the server thread is stepped inline; the reply is then
	// ready for the client's Recv. No spin-polling ever goes unanswered,
	// so virtual costs are exact.
	step := func(issue func() error) float64 {
		before := rackNS()
		if err := issue(); err != nil {
			panic(err)
		}
		return float64(rackNS() - before)
	}
	serveOne := func() {
		n, err := srvConn.Recv(srvBuf)
		if err != nil {
			panic(err)
		}
		if err := srvConn.Send(srv.Execute(srvBuf[:n])); err != nil {
			panic(err)
		}
	}
	for i := 0; i < requests; i++ {
		key := fmt.Sprintf("key-%d", i%64)
		setH.Record(step(func() error {
			if err := cl.SendSet(key, value); err != nil {
				return err
			}
			serveOne()
			return cl.FinishSet()
		}))
	}
	for i := 0; i < requests; i++ {
		key := fmt.Sprintf("key-%d", i%64)
		getH.Record(step(func() error {
			if err := cl.SendGet(key); err != nil {
				return err
			}
			serveOne()
			_, ok, err := cl.FinishGet()
			if err == nil && !ok {
				return fmt.Errorf("get %s: missing", key)
			}
			return err
		}))
	}
	return setH, getH
}
