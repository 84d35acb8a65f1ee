// Package torture is FlacOS's deterministic, seeded fault-sweep
// framework: it runs registered workloads against a live rack while a
// schedule driver injects faults — bit corruption and dropped write-backs
// from fabric.FaultInjector, node crashes and restarts, link degradation
// — at seed-replayable points, then runs invariant checkers over the
// recorded operation history.
//
// The paper's core claim is that FlacOS co-designs its lock-free
// synchronization methods WITH fault tolerance, so the rack survives the
// larger fault surface of non-coherent global memory. This package is the
// correctness backbone behind that claim: every subsystem's invariants
// are checked under a systematic, reproducible stress campaign rather
// than asserted ad hoc.
//
// Determinism contract: the fault schedule is derived entirely from the
// seed (event kinds, victims, rates, and the operation counts at which
// they fire), and every scheduled event is applied exactly once per run —
// by op-count crossing while clients run, or drained at the end. Same
// seed therefore means identical event counts and, for correct code,
// identical PASS verdicts; goroutine interleavings may vary but the
// checked invariants must hold under all of them.
package torture

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/health"
	"flacos/internal/memsys"
	"flacos/internal/trace"
)

// FaultClass is a bitmask of injectable fault classes.
type FaultClass uint32

// Fault classes.
const (
	// FaultCrash kills a node mid-run (losing its un-written-back cache
	// lines) and later restarts it cold.
	FaultCrash FaultClass = 1 << iota
	// FaultCorrupt flips random bits in words on the cached write-back
	// path. Only workloads whose shared state travels purely over fabric
	// atomics (which bypass that path) tolerate it.
	FaultCorrupt
	// FaultDropWB silently drops whole line write-backs.
	FaultDropWB
	// FaultDegrade adds interconnect hops to a node's link at runtime.
	FaultDegrade

	// FaultAll enables every class a workload tolerates.
	FaultAll = FaultCrash | FaultCorrupt | FaultDropWB | FaultDegrade
)

func (fc FaultClass) String() string {
	if fc == 0 {
		return "none"
	}
	var parts []string
	for _, p := range []struct {
		f FaultClass
		s string
	}{{FaultCrash, "crash"}, {FaultCorrupt, "corrupt"}, {FaultDropWB, "dropwb"}, {FaultDegrade, "degrade"}} {
		if fc&p.f != 0 {
			parts = append(parts, p.s)
		}
	}
	return strings.Join(parts, "+")
}

// Config parameterizes one sweep run.
type Config struct {
	// Seed drives the fault schedule, the fabric's fault injector, and
	// every client's op stream. Same seed, same schedule.
	Seed int64
	// Nodes sizes the rack (default 3; node 0 never crashes).
	Nodes int
	// ClientsPerNode is how many client goroutines each node runs
	// (default 2; workloads may interpret roles per client).
	ClientsPerNode int
	// OpsPerClient is how many completed operations each client performs
	// (default 250). The fault schedule is laid out over the total.
	OpsPerClient int
	// Faults enables fault classes; each workload additionally masks it
	// with what it tolerates. Default FaultAll.
	Faults FaultClass
	// Events is how many fault windows the schedule contains (each is an
	// on/off or crash/restart pair; default 6).
	Events int
	// CorruptPPM and DropPPM are the peak injector rates used inside
	// corrupt/dropwb windows (defaults 400/400).
	CorruptPPM, DropPPM uint64
	// DegradeHops is the link degradation applied inside degrade windows
	// (default 6 extra hops).
	DegradeHops int
	// Break names a deliberately broken sync path to enable for the run
	// ("" = none). See ApplyBreak.
	Break string
	// GlobalMemBytes sizes the fabric (default 256 MiB).
	GlobalMemBytes uint64
	// CacheLines bounds each node cache (default -1: unbounded, so stale
	// lines stay resident and missing invalidates are observable).
	CacheLines int
	// NoTrace disables the rack flight recorder. Tracing is on by default:
	// a failing sweep's report carries the merged pre-failure timeline
	// (Report.TraceTimeline / TraceJSON), including whatever a crashed
	// node published before dying.
	NoTrace bool
	// TraceRingCap sizes each node's event ring (default 32768 slots).
	TraceRingCap uint64
}

func (c *Config) fillDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.ClientsPerNode == 0 {
		c.ClientsPerNode = 2
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 250
	}
	if c.Faults == 0 {
		c.Faults = FaultAll
	}
	if c.Events == 0 {
		c.Events = 6
	}
	if c.CorruptPPM == 0 {
		c.CorruptPPM = 400
	}
	if c.DropPPM == 0 {
		c.DropPPM = 400
	}
	if c.DegradeHops == 0 {
		c.DegradeHops = 6
	}
	if c.GlobalMemBytes == 0 {
		c.GlobalMemBytes = 256 << 20
	}
	if c.CacheLines == 0 {
		c.CacheLines = -1
	}
	if c.TraceRingCap == 0 {
		c.TraceRingCap = 1 << 15
	}
}

// Violation is one invariant breach found by a checker.
type Violation struct {
	Client int
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("client %d: %s", v.Client, v.Detail) }

// Workload is one subsystem-under-torture: it builds its subsystem on the
// rack, runs client op streams, and checks invariants. Online violations
// are recorded through Env.Violatef; Check runs after every client
// finished and the rack is quiescent (all nodes alive, faults off).
type Workload interface {
	Name() string
	// Tolerates returns the fault classes this workload's invariants are
	// expected to hold under (e.g. cached-payload structures cannot
	// survive silent corruption; atomics-only ones can).
	Tolerates() FaultClass
	Prepare(env *Env)
	Clients(env *Env) []func()
	Check(env *Env)
}

// RestartHandler is implemented by workloads that must re-integrate a
// restarted node (e.g. reboot its scheduler workers).
type RestartHandler interface {
	HandleRestart(env *Env, node int)
}

// Env is the harness context handed to workloads.
type Env struct {
	Fab *fabric.Fabric
	Cfg Config
	// Trace is the rack flight recorder, nil when Cfg.NoTrace is set.
	// Workloads attach their subsystems to it in Prepare (SetTrace is
	// nil-recorder safe, so unconditional attachment is fine).
	Trace *trace.Recorder

	ops    atomic.Uint64
	violMu sync.Mutex
	viols  []Violation
}

// OpDone counts one completed client operation; the schedule driver fires
// events when the global count crosses their thresholds.
func (e *Env) OpDone() { e.ops.Add(1) }

// Ops returns the global completed-operation count.
func (e *Env) Ops() uint64 { return e.ops.Load() }

// Violatef records an invariant violation observed online.
func (e *Env) Violatef(client int, format string, args ...any) {
	e.violMu.Lock()
	e.viols = append(e.viols, Violation{Client: client, Detail: fmt.Sprintf(format, args...)})
	e.violMu.Unlock()
}

func (e *Env) takeViolations() []Violation {
	e.violMu.Lock()
	defer e.violMu.Unlock()
	v := e.viols
	e.viols = nil
	return v
}

// Rand returns a deterministic per-stream rng derived from the seed.
func (e *Env) Rand(stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(e.Cfg.Seed ^ int64(stream*0x9e3779b97f4a7c15+0x6a09e667)))
}

// RunOp executes fn, which performs fabric operations on node n, and
// reports whether it completed. A panic caused by the node being crashed
// is absorbed (the op's CPU died with its node); any other panic
// propagates — it is a bug, not a fault.
func RunOp(n *fabric.Node, fn func()) (completed bool) {
	defer n.AbsorbCrash()
	fn()
	return true
}

// WaitAlive blocks until n has been restarted.
func WaitAlive(n *fabric.Node) {
	for n.Crashed() {
		time.Sleep(100 * time.Microsecond)
	}
}

// Report is the outcome of one workload sweep.
type Report struct {
	Workload   string
	Seed       int64
	Faults     FaultClass // classes actually enabled (config ∩ tolerated)
	Ops        uint64
	Events     []Event
	BitFlips   uint64
	DroppedWBs uint64
	Violations []Violation
	// TraceTimeline and TraceJSON hold the merged rack flight-recorder
	// extract (human timeline tail and Chrome trace_event JSON), filled
	// only for failing runs with tracing enabled.
	TraceTimeline string
	TraceJSON     []byte
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Verdict is "PASS" or "FAIL".
func (r *Report) Verdict() string {
	if r.Passed() {
		return "PASS"
	}
	return "FAIL"
}

// String renders the report with the compact event trace that makes a
// failure replayable: feed the same seed back through
// `flacbench -experiment torture -seed N`.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "torture %-8s seed=%-6d faults=%-28s ops=%-6d events=%d flips=%d drops=%d => %s\n",
		r.Workload, r.Seed, r.Faults, r.Ops, len(r.Events), r.BitFlips, r.DroppedWBs, r.Verdict())
	if !r.Passed() {
		fmt.Fprintf(&b, "  event trace (replay with -seed %d):\n", r.Seed)
		for _, ev := range r.Events {
			fmt.Fprintf(&b, "    %s\n", ev)
		}
		max := len(r.Violations)
		if max > 12 {
			max = 12
		}
		for _, v := range r.Violations[:max] {
			fmt.Fprintf(&b, "  violation: %s\n", v)
		}
		if len(r.Violations) > max {
			fmt.Fprintf(&b, "  ... and %d more violations\n", len(r.Violations)-max)
		}
	}
	return b.String()
}

// breaks is the one place the planted bugs are named: each entry flips a
// deliberately broken sync path whose class of bug the checkers exist
// to catch.
var breaks = []struct {
	name string
	set  func(bool)
}{
	{"ring-invalidate", ds.SetBrokenSkipPopInvalidate},
	{"shootdown", memsys.SetBrokenSkipShootdown},
	{"drain-fence", health.SetBrokenSkipDrainFence},
}

// Breaks lists the valid ApplyBreak names.
func Breaks() []string {
	names := make([]string, len(breaks))
	for i, b := range breaks {
		names[i] = b.name
	}
	return names
}

// ApplyBreak enables the named broken path ("" is none) and returns an
// error for an unknown name. Call ClearBreaks afterwards.
func ApplyBreak(name string) error {
	for _, b := range breaks {
		if b.name == name {
			b.set(true)
			return nil
		}
	}
	if name == "" {
		return nil
	}
	return fmt.Errorf("torture: unknown break %q (want %s)", name, strings.Join(Breaks(), "|"))
}

// ClearBreaks restores every broken path.
func ClearBreaks() {
	for _, b := range breaks {
		b.set(false)
	}
}

// Workloads returns a fresh instance of every registered workload, in
// fixed order. A workload holds one sweep's state: never Run one twice.
func Workloads() []Workload {
	return []Workload{newDSWorkload(), newSchedWorkload(), newFSWorkload(), newMemsysWorkload(), newRedisWorkload(), newMembershipWorkload(), newHealthWorkload()}
}

// WorkloadNames lists the registered workloads in sweep order.
func WorkloadNames() []string {
	var names []string
	for _, w := range Workloads() {
		names = append(names, w.Name())
	}
	return names
}

// ByName returns a fresh instance of the named workload, or nil.
func ByName(name string) Workload {
	for _, w := range Workloads() {
		if w.Name() == name {
			return w
		}
	}
	return nil
}

// Run executes one workload sweep under cfg and returns its report.
func Run(w Workload, cfg Config) *Report {
	cfg.fillDefaults()
	mask := w.Tolerates() & cfg.Faults
	f := fabric.New(fabric.Config{
		GlobalSize:         cfg.GlobalMemBytes,
		Nodes:              cfg.Nodes,
		CacheCapacityLines: cfg.CacheLines,
		// Accounting-only latency gives the flight recorder deterministic
		// virtual timestamps; it adds no real delay to the sweep.
		Latency:   fabric.DefaultLatency(),
		FaultSeed: cfg.Seed,
	})
	env := &Env{Fab: f, Cfg: cfg}
	if !cfg.NoTrace {
		env.Trace = trace.New(f, trace.Config{RingCap: cfg.TraceRingCap})
	}
	if cfg.Break != "" {
		if err := ApplyBreak(cfg.Break); err != nil {
			panic(err)
		}
		defer ClearBreaks()
	}
	w.Prepare(env)
	clients := w.Clients(env)
	total := uint64(len(clients)) * uint64(cfg.OpsPerClient)
	schedule := buildSchedule(cfg, mask, total)

	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(ci int, fn func()) {
			defer wg.Done()
			// With a deliberately broken path enabled, a panic (e.g. an
			// allocator corrupted by a write through a stale mapping) IS the
			// injected bug manifesting: record it and let the sweep finish.
			// Without a break it is a harness/subsystem bug and must blow up.
			defer func() {
				if r := recover(); r != nil {
					if cfg.Break == "" {
						panic(r)
					}
					env.Violatef(ci, "client panicked (broken %q path bit): %v", cfg.Break, r)
				}
			}()
			fn()
		}(i, c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	drive(env, w, schedule, done)
	<-done
	quiesce(env, w)

	viols := env.takeViolations()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if cfg.Break == "" {
					panic(r)
				}
				env.Violatef(-1, "final check panicked (broken %q path bit): %v", cfg.Break, r)
			}
		}()
		w.Check(env)
	}()
	viols = append(viols, env.takeViolations()...)
	rep := &Report{
		Workload:   w.Name(),
		Seed:       cfg.Seed,
		Faults:     mask,
		Ops:        env.Ops(),
		Events:     schedule,
		BitFlips:   f.Faults().BitFlips(),
		DroppedWBs: f.Faults().DroppedWriteBacks(),
		Violations: viols,
	}
	if !rep.Passed() && env.Trace != nil {
		// Post-mortem: extract every node's ring — crashed nodes' published
		// events are still in global memory — and attach the merged tail.
		rt := env.Trace.Collector().Snapshot(f.Node(0), false)
		rep.TraceTimeline = rt.TimelineTail(256)
		rep.TraceJSON = rt.ChromeJSON()
	}
	return rep
}

// quiesce restores the rack to a fault-free, fully-alive state so final
// checks observe steady-state invariants.
func quiesce(env *Env, w Workload) {
	f := env.Fab
	f.Faults().SetCorruptionRate(0)
	f.Faults().SetDropWriteBackRate(0)
	for i := 0; i < f.NumNodes(); i++ {
		n := f.Node(i)
		n.SetLinkDegradation(0)
		if n.Crashed() {
			// Unreachable with a well-formed schedule (crashes are always
			// paired with a drained restart); kept as a safety net so Check
			// never runs against a dead node.
			n.Restart()
			if h, ok := w.(RestartHandler); ok {
				h.HandleRestart(env, i)
			}
		}
	}
}
