// Package core assembles FlacOS: it boots a simulated memory-interconnect
// rack and stands up the coordinated, partially shared operating system of
// the paper — shared kernel structures (page tables, page cache, IPC
// buffers, operation logs) laid out in global memory, and one node-local
// OS instance per node holding the private structures (VMAs, TLBs,
// metadata replicas, socket tables) that coordinate through FlacDK's
// synchronization methods.
//
// This is the public API the examples and the experiment harness consume:
//
//	rack := core.Boot(core.Config{Nodes: 2})
//	osA, osB := rack.OS(0), rack.OS(1)
//	id, _ := osA.Mount.Create("/shared/data")   // visible on every node
//	conn, _ := osB.Endpoint.Connect("service")  // zero-copy IPC
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/boot"
	"flacos/internal/fabric"
	"flacos/internal/faultbox"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/reliability"
	"flacos/internal/fs"
	"flacos/internal/ipc"
	"flacos/internal/memsys"
	"flacos/internal/redis"
	"flacos/internal/sched"
	"flacos/internal/serverless"
	"flacos/internal/trace"
)

// Config sizes the rack and the OS's shared structures. Zero values get
// workable defaults for a small simulated rack.
type Config struct {
	// Nodes is the number of compute nodes (default 2, like the paper's
	// two-node Kunpeng rack).
	Nodes int
	// GlobalMemory is the interconnect-attached memory size in bytes
	// (default 256 MiB). A quarter of it is the kernel object arena.
	GlobalMemory uint64
	// PageCacheFrames sizes the shared page cache (default 4096 pages).
	PageCacheFrames uint64
	// IPC sizes the switchboard.
	IPC ipc.Config
	// FaultSeed seeds the deterministic fault injector.
	FaultSeed int64
	// RedisViews bounds concurrent rack-shared Redis views (default 128).
	RedisViews int
}

// The rack's fixed sizes and costs.
const (
	// anonFrames sizes the anonymous-memory frame pool.
	anonFrames = 4096
	// deviceReadNS and deviceWriteNS model the backing storage device
	// (50/60 us, NVMe-class).
	deviceReadNS, deviceWriteNS = 50_000, 60_000
)

func (c *Config) fillDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.GlobalMemory == 0 {
		c.GlobalMemory = 256 << 20
	}
	if c.PageCacheFrames == 0 {
		c.PageCacheFrames = 4096
	}
}

// Rack is a booted FlacOS rack: the shared substrate plus one OS instance
// per node.
type Rack struct {
	Fabric *fabric.Fabric
	// Frames is the anonymous-memory global frame pool (address spaces,
	// fault boxes).
	Frames *memsys.GlobalFrames
	// Arena allocates kernel objects in global memory.
	Arena *alloc.Arena
	// FS is the rack-wide file system with the shared page cache.
	FS *fs.FS
	// Dev is the storage device under FS.
	Dev *fs.MemDev
	// Switchboard carries zero-copy IPC.
	Switchboard *ipc.Switchboard
	// Services is the migration-RPC service table (shared code contexts).
	Services *ipc.ServiceTable
	// Boxes manages fault boxes.
	Boxes *faultbox.Manager
	// Scrubber guards protected global regions.
	Scrubber *reliability.Scrubber
	// HWTable is the shared-memory hardware description (§5 extension);
	// every OS instance discovers the rack through it.
	HWTable fabric.GPtr

	instances []*OS
	nextSpace uint64

	schedOnce   sync.Once
	sched       *sched.Scheduler
	schedBooted atomic.Bool

	redisOnce sync.Once
	redis     *redis.RackStore
	redisCfg  redis.RackStoreConfig

	traceMu sync.Mutex
	tracer  *trace.Recorder
}

// Scheduler returns the rack-wide coordinated task scheduler, booting it
// on first use: per-node worker pools over a shared run queue and load
// board in global memory, with locality-aware placement and failure-aware
// re-dispatch (internal/sched). One scheduler serves the whole rack.
func (r *Rack) Scheduler() *sched.Scheduler {
	r.schedOnce.Do(func() {
		r.sched = sched.New(r.Fabric, sched.DefaultConfig())
		r.sched.Start()
		// Handshake with EnableTrace: publish the booted scheduler first,
		// then check for a recorder. Whichever of the two calls runs its
		// check second sees the other's store, so at least one attaches
		// (SetTrace is idempotent, a double attach is harmless).
		r.schedBooted.Store(true)
		if t := r.Trace(); t != nil {
			r.sched.SetTrace(t)
		}
	})
	return r.sched
}

// RedisStore returns the rack-shared Redis keyspace, laying it out in
// global memory on first use: the key index is a flacdk/ds hashmap, the
// entry blocks come from the kernel object arena, and replaced values are
// reclaimed through flacdk/quiescence. Every node serves the SAME dataset
// through views from OS.RedisView — the paper's Fig. 4 workload running
// on the shared-OS substrate instead of a per-node Go heap.
func (r *Rack) RedisStore() *redis.RackStore {
	r.redisOnce.Do(func() {
		cfg := r.redisCfg
		cfg.Arena = r.Arena
		r.redis = redis.NewRackStore(r.Fabric, cfg)
	})
	return r.redis
}

// RedisView attaches one worker's view on the rack-shared Redis store to
// this node. A view is single-goroutine (it owns a quiescence participant);
// attach one per server session or client worker. SET/GET spans land in
// the flight recorder when EnableTrace ran first.
func (o *OS) RedisView() *redis.View {
	v := o.Rack.RedisStore().Attach(o.Node)
	if t := o.Rack.Trace(); t != nil {
		v.SetTrace(t.Writer(o.Node.ID()))
	}
	return v
}

// EnableTrace boots the rack-wide flight recorder (internal/trace) and
// attaches every booted subsystem's hot-path hooks: fabric miss/write-back/
// fence events when cfg.FabricEvents is set, scheduler dispatch/steal/
// lease-expiry/complete, fs journal commits and page-cache evictions.
// Spaces and serverless control planes created after this call attach
// automatically. Idempotent: later calls return the first recorder.
func (r *Rack) EnableTrace(cfg trace.Config) *trace.Recorder {
	r.traceMu.Lock()
	if r.tracer == nil {
		r.tracer = trace.New(r.Fabric, cfg)
		r.FS.SetTrace(r.tracer)
	}
	rec := r.tracer
	r.traceMu.Unlock()
	if r.schedBooted.Load() {
		r.sched.SetTrace(rec)
	}
	return rec
}

// Trace returns the rack's flight recorder, or nil before EnableTrace.
func (r *Rack) Trace() *trace.Recorder {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return r.tracer
}

// Shutdown stops the rack's background machinery (scheduler workers and
// lease keepers). The fabric itself needs no teardown; a Rack is garbage
// once unreferenced. Safe to call more than once.
func (r *Rack) Shutdown() {
	r.schedOnce.Do(func() {}) // settle: either it booted or it never will
	if r.sched != nil {
		r.sched.Stop()
	}
}

// OS is one node's FlacOS instance: the node-local half of the coordinated
// OS, pre-attached to every shared subsystem.
type OS struct {
	Rack     *Rack
	Node     *fabric.Node
	Mount    *fs.Mount
	Endpoint *ipc.Endpoint
	Local    *memsys.LocalStore
}

// Boot brings the rack up.
func Boot(cfg Config) *Rack {
	cfg.fillDefaults()
	// The default latency model (accounting-only) and the fabric's default
	// cache bound.
	f := fabric.New(fabric.Config{
		GlobalSize: cfg.GlobalMemory,
		Nodes:      cfg.Nodes,
		Latency:    fabric.DefaultLatency(),
		FaultSeed:  cfg.FaultSeed,
	})
	r := &Rack{Fabric: f, redisCfg: redis.RackStoreConfig{MaxViews: cfg.RedisViews}}
	// One frame pool serves both anonymous memory and the page cache, so
	// file-backed mappings can move frames between them (COW breaks).
	r.Frames = memsys.NewGlobalFrames(f, anonFrames+cfg.PageCacheFrames)
	r.Arena = alloc.NewArena(f, cfg.GlobalMemory/4)
	r.Dev = fs.NewMemDev(deviceReadNS, deviceWriteNS)
	r.FS = fs.New(f, r.Dev, fs.Config{
		CacheFrames: cfg.PageCacheFrames,
		MaxMounts:   2 * cfg.Nodes,
		Frames:      r.Frames,
	})
	r.Switchboard = ipc.NewSwitchboard(f, f.Node(0), cfg.IPC)
	r.Services = ipc.NewServiceTable(f)
	r.Boxes = faultbox.NewManager(f, r.Frames, r.Arena)
	r.Scrubber = reliability.NewScrubber(f)

	// Publish the hardware description into shared memory; every node's OS
	// instance bootstraps from this single table.
	r.HWTable = f.Reserve(boot.TableCap, fabric.LineSize)
	desc := boot.HWDesc{GlobalMemBytes: f.Size(), BootSeq: 1}
	for i := 0; i < cfg.Nodes; i++ {
		desc.Nodes = append(desc.Nodes, boot.NodeDesc{
			ID: uint32(i), Cores: 320, Hops: uint32(f.Node(i).Hops()), LocalMemMB: 262144,
		})
	}
	desc.Devices = append(desc.Devices, boot.DeviceDesc{Name: "blk0", Owner: 0, Kind: "block"})
	if err := boot.Publish(f.Node(0), r.HWTable, desc); err != nil {
		panic(err)
	}

	for i := 0; i < cfg.Nodes; i++ {
		n := f.Node(i)
		r.instances = append(r.instances, &OS{
			Rack:     r,
			Node:     n,
			Mount:    r.FS.Mount(n),
			Endpoint: r.Switchboard.Endpoint(n),
			Local:    memsys.NewLocalStore(n),
		})
	}
	return r
}

// Nodes returns the number of nodes in the rack.
func (r *Rack) Nodes() int { return len(r.instances) }

// OS returns node i's FlacOS instance.
func (r *Rack) OS(i int) *OS {
	if i < 0 || i >= len(r.instances) {
		panic(fmt.Sprintf("core: node %d out of range [0,%d)", i, len(r.instances)))
	}
	return r.instances[i]
}

// NewSpace creates a rack-wide shared address space (traced when the
// rack's flight recorder is enabled).
func (r *Rack) NewSpace() *memsys.Space {
	r.nextSpace++
	s := memsys.NewSpace(r.Fabric, r.nextSpace, r.Frames,
		r.Arena.NodeAllocator(r.Fabric.Node(0), 0), 1024)
	if t := r.Trace(); t != nil {
		s.SetTrace(t)
	}
	return s
}

// Attach joins this node to a shared address space.
func (o *OS) Attach(s *memsys.Space) *memsys.MMU {
	return s.Attach(o.Node, o.Rack.Arena.NodeAllocator(o.Node, 0), o.Local, 256)
}

// Serverless stands up the rack-level serverless platform of §4.1 over
// this rack: per-node container runtimes sharing the page cache, and a
// control plane routing invocations over migration RPC.
func (r *Rack) Serverless(reg *serverless.Registry, rtCfg serverless.RuntimeConfig) *serverless.Controller {
	runtimes := make([]*serverless.NodeRuntime, r.Nodes())
	for i := range runtimes {
		runtimes[i] = serverless.NewNodeRuntime(r.Fabric.Node(i), r.OS(i).Mount, reg, rtCfg)
	}
	ctl := serverless.NewController(runtimes, r.Services)
	// Container placement goes through the coordinated scheduler: its
	// global load board sees work the control plane's own density count
	// doesn't, and it skips crashed nodes. Nothing evicts or re-places a
	// container once started: a core rack runs no failure detector, and
	// the control plane that declares nodes dead (health.Plane, booted by
	// torture.ControlRack) gates and fences nodes, not containers.
	ctl.SetPlacer(r.Scheduler().PickNode)
	if t := r.Trace(); t != nil {
		ctl.SetTrace(t)
	}
	return ctl
}
