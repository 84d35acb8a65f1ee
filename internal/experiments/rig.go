package experiments

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/loadgen"
	"flacos/internal/netstack"
)

// This file is the set-up and measurement kit the experiments share, so
// a change to how racks are connected, fanned out, clocked or replayed
// under open-loop load is made once.

// ipcPair binds name on the server's endpoint, connects from the
// client's, and returns both ends of the established connection.
func ipcPair(srvEP, cliEP *ipc.Endpoint, name string) (srv, cli *ipc.Conn, closeAll func()) {
	l, err := srvEP.Bind(name)
	if err != nil {
		panic(err)
	}
	accepted := make(chan *ipc.Conn)
	go func() { accepted <- l.Accept() }()
	cli, err = cliEP.Connect(name)
	if err != nil {
		panic(err)
	}
	return <-accepted, cli, func() { cli.Close(); l.Close() }
}

// tcpPair is ipcPair over the TCP/IP networking baseline.
func tcpPair(srvNode, cliNode *fabric.Node) (srv, cli *netstack.Conn, closeAll func()) {
	const addr = "10.0.0.1:6379"
	nw := netstack.New(netstack.DefaultTCP())
	l, err := nw.Listen(srvNode, addr)
	if err != nil {
		panic(err)
	}
	accepted := make(chan *netstack.Conn)
	go func() {
		c, err := l.Accept()
		if err != nil {
			panic(err)
		}
		accepted <- c
	}()
	cli, err = nw.Dial(cliNode, addr)
	if err != nil {
		panic(err)
	}
	return <-accepted, cli, func() { cli.Close(); l.Close() }
}

// fanOut runs fn(0..n-1) on n goroutines and waits for all of them: one
// barriered step of a lockstep experiment.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); fn(i) }(i)
	}
	wg.Wait()
}

// clockMark is a snapshot of the first len(m) nodes' virtual clocks.
type clockMark []fabric.NodeStatsSnapshot

func markClocks(f *fabric.Fabric, nodes int) clockMark {
	m := make(clockMark, nodes)
	for i := range m {
		m[i] = f.Node(i).Stats()
	}
	return m
}

// since returns each node's virtual ns spent since the mark and their
// maximum — the makespan. No phase ever spin-waits, so per-node virtual
// time is pure work and the makespan is an honest capacity measure.
func (m clockMark) since(f *fabric.Fabric) (perNode []uint64, makespan uint64) {
	perNode = make([]uint64, len(m))
	for i := range m {
		perNode[i] = f.Node(i).Stats().Delta(m[i]).VirtualNS
		if perNode[i] > makespan {
			makespan = perNode[i]
		}
	}
	return perNode, makespan
}

// opsPerSec converts ops over a virtual makespan into a rate.
func opsPerSec(ops int, makespanNS uint64) float64 {
	return ratio(float64(ops), float64(makespanNS)/1e9)
}

// meanService turns per-node virtual time and op counts into each node's
// mean per-op service time (never 0), the open-loop replay's service model.
func meanService(perNodeNS []uint64, ops func(node int) int) []uint64 {
	out := make([]uint64, len(perNodeNS))
	for i, ns := range perNodeNS {
		if n := ops(i); n > 0 {
			out[i] = ns / uint64(n)
		}
		if out[i] == 0 {
			out[i] = 1
		}
	}
	return out
}

// openLoopFactors are the offered loads every open-loop sweep replays, as
// fractions of measured capacity. Factors <= 0.8 gate on achieved >=
// 0.95x offered; the factor past 1 exists to show the saturation knee.
var openLoopFactors = []float64{0.5, 0.8, 1.2}

// openLoop replays a closed-loop phase's measured service profile against
// Poisson arrivals at each offered load: total ops dealt round-robin
// across the serving nodes, each costing its node's mean service time.
// Sojourn time (queueing + service) gives honest p50/p99 under load, and
// pushing past capacity exposes the saturation knee that barriered
// measurement structurally hides. It adds one table row per load (config
// column from label) plus the knee row, and fails res when a load below
// saturation is not tracked.
func openLoop(res *Result, what string, label func(factor float64) string, kneeLabel string,
	capacity float64, total int, meanServiceNS []uint64, seed uint64) []loadgen.Row {
	nodes := len(meanServiceNS)
	sweep := make([]loadgen.Row, 0, len(openLoopFactors))
	for _, fac := range openLoopFactors {
		offered := fac * capacity
		var ops []loadgen.Op
		if offered > 0 {
			arr := loadgen.NewArrivals(seed, offered)
			ops = make([]loadgen.Op, total)
			for i := range ops {
				srv := i % nodes
				ops[i] = loadgen.Op{ArrivalNS: arr.Next(), Server: srv, ServiceNS: meanServiceNS[srv]}
			}
		}
		row := loadgen.MeasureRow(nodes, offered, ops, nodes)
		sweep = append(sweep, row)
		res.Table.AddRow("open-loop", label(fac), "achieved ops/s | p50 | p99",
			fmt.Sprintf("%.0f | %s | %s", row.AchievedOpsPerSec, ns(float64(row.P50NS)), ns(float64(row.P99NS))))
		if fac <= 0.8 && row.AchievedOpsPerSec < 0.95*offered {
			res.Fail("%s at %.1fx capacity achieved %.0f ops/s of %.0f offered: below saturation the rack must track offered load",
				what, fac, row.AchievedOpsPerSec, offered)
		}
	}
	knee := "none"
	if k := loadgen.Knee(sweep); k >= 0 {
		knee = fmt.Sprintf("%.1fx capacity", openLoopFactors[k])
	}
	res.Table.AddRow("open-loop", kneeLabel, "saturation knee", knee)
	return sweep
}
