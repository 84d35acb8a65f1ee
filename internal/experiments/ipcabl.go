package experiments

import (
	"fmt"

	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/netstack"
	"flacos/internal/redis"
)

// IPCConfig parameterizes ablation D.
type IPCConfig struct {
	Rounds int
}

// ipcPayloads sweeps payload sizes from cache-line to page-plus scale.
var ipcPayloads = []int{64, 1024, 4096, 16384, 65536}

// DefaultIPC is the paper-sized sweep.
func DefaultIPC() IPCConfig { return IPCConfig{Rounds: 2000} }

// QuickIPC is the CI-sized sweep.
func QuickIPC() IPCConfig { return IPCConfig{Rounds: 300} }

// IPCAblation compares echo round-trip cost (virtual ns, both endpoints'
// charges summed) across the four transports §3.5 discusses: the TCP
// stack, one-sided RDMA, FlacOS zero-copy shared-buffer IPC, and FlacOS
// migration RPC (no message at all — the caller's thread runs the server
// code).
func IPCAblation(cfg IPCConfig) *Result {
	res := newResult("Ablation D: IPC transports, echo round trip",
		"payload", "tcp", "rdma", "flacos-ipc", "migration-rpc")
	for _, size := range ipcPayloads {
		tcp := echoTCP(size, cfg.Rounds)
		rdma := echoRDMA(size, cfg.Rounds)
		shm := echoIPC(size, cfg.Rounds)
		mig := echoMigration(size, cfg.Rounds)
		res.Table.AddRow(fmt.Sprintf("%dB", size),
			ns(tcp), ns(rdma), ns(shm), ns(mig))
		res.Ratios[fmt.Sprintf("tcp/ipc %dB", size)] = tcp / shm
		res.Ratios[fmt.Sprintf("tcp/migration %dB", size)] = tcp / mig
	}
	return res
}

func newIPCRack() *fabric.Fabric {
	return fabric.New(fabric.Config{
		GlobalSize: 64 << 20,
		Nodes:      2,
		Latency:    fabric.DefaultLatency(),
	})
}

func perOp(f *fabric.Fabric, rounds int) float64 {
	return float64(f.RackStats().VirtualNS) / float64(rounds)
}

// echoConns drives rounds lockstep echo round trips over an established
// connection pair, measuring from after the handshake.
func echoConns(f *fabric.Fabric, srv, cli redis.Conn, size, rounds int) float64 {
	f.Node(0).ResetStats()
	f.Node(1).ResetStats()
	msg := make([]byte, size)
	buf := make([]byte, size+64)
	for i := 0; i < rounds; i++ {
		cli.Send(msg)
		n, _ := srv.Recv(buf)
		srv.Send(buf[:n])
		cli.Recv(buf)
	}
	return perOp(f, rounds)
}

func echoTCP(size, rounds int) float64 {
	f := newIPCRack()
	srv, cli, _ := tcpPair(f.Node(0), f.Node(1))
	return echoConns(f, srv, cli, size, rounds)
}

func echoRDMA(size, rounds int) float64 {
	f := newIPCRack()
	r := netstack.NewRDMA(netstack.DefaultRDMA())
	reqMR := netstack.NewMemoryRegion(size + 64)
	respMR := netstack.NewMemoryRegion(size + 64)
	client := f.Node(1)
	msg := make([]byte, size)
	buf := make([]byte, size)
	for i := 0; i < rounds; i++ {
		// One-sided RPC: write the request into the server's region, the
		// server-side CPU is bypassed (that is RDMA's selling point), then
		// read the response back.
		r.Write(client, reqMR, 0, msg)
		r.Read(client, respMR, 0, buf)
	}
	return perOp(f, rounds)
}

func echoIPC(size, rounds int) float64 {
	f := newIPCRack()
	sb := ipc.NewSwitchboard(f, f.Node(0), ipc.Config{
		MaxConns: 2, MaxListeners: 1, RingSlots: 8, MsgMax: uint64(size) + 64,
	})
	srv, cli, _ := ipcPair(sb.Endpoint(f.Node(0)), sb.Endpoint(f.Node(1)), "echo")
	return echoConns(f, srv, cli, size, rounds)
}

func echoMigration(size, rounds int) float64 {
	f := newIPCRack()
	tbl := ipc.NewServiceTable(f)
	tbl.Register("echo", func(n *fabric.Node, req []byte) []byte { return req })
	client := f.Node(1)
	msg := make([]byte, size)
	for i := 0; i < rounds; i++ {
		if _, err := tbl.Call(client, "echo", msg); err != nil {
			panic(err)
		}
	}
	return perOp(f, rounds)
}
