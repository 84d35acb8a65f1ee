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
	"runtime"
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
	// OpsPerClient is how many completed operations each client performs
	// (default 250). The fault schedule is laid out over the total.
	OpsPerClient int
	// Events is how many fault windows the schedule contains (each is an
	// on/off or crash/restart pair; default 6).
	Events int
	// Break names a deliberately broken sync path to enable for the run
	// ("" = none). See ApplyBreak.
	Break string
}

// A sweep's fixed rack and fault rates. Every fault class a workload
// tolerates is enabled, and the flight recorder is always on: a failing
// sweep's report carries the merged pre-failure timeline
// (Report.TraceTimeline / TraceJSON), including whatever a crashed node
// published before dying.
const (
	// nodes sizes the rack; node 0 never crashes.
	nodes = 3
	// corruptPPM and dropPPM are the peak injector rates used inside
	// corrupt/dropwb windows.
	corruptPPM, dropPPM = 400, 400
	// degradeHops is the most link degradation a degrade window applies,
	// in extra hops.
	degradeHops = 6
	// globalMemBytes sizes the fabric.
	globalMemBytes = 256 << 20
	// cacheLines bounds each node cache: unbounded, so stale lines stay
	// resident and missing invalidates are observable.
	cacheLines = -1
	// traceRingCap sizes each node's event ring, in events.
	traceRingCap = 1 << 15
)

func (c *Config) fillDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 250
	}
	if c.Events == 0 {
		c.Events = 6
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

// Stopper is implemented by workloads that run goroutines of their own
// beside the clients (a scheduler, a control plane). Run stops them when
// the sweep is over: after Check, or once the watchdog halted it.
type Stopper interface{ Stop() }

// RestartHandler is implemented by workloads that must re-integrate a
// restarted node (e.g. reboot its scheduler workers).
type RestartHandler interface {
	HandleRestart(env *Env, node int)
}

// Env is the harness context handed to workloads.
type Env struct {
	Fab *fabric.Fabric
	Cfg Config
	// Trace is the rack flight recorder. Workloads attach their
	// subsystems to it in Prepare.
	Trace *trace.Recorder

	ops    atomic.Uint64
	violMu sync.Mutex
	viols  []Violation
	// inflight counts, per node, the Env.RunOp calls in progress: a
	// restart waits for them (see restart).
	inflight []atomic.Int64
	// halted is set when the watchdog stops a stuck sweep (see halt).
	halted atomic.Bool
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

// RunOp is RunOp for a workload client: the op counts as in flight on n
// until it returns, so a restart of n cannot land inside it.
func (e *Env) RunOp(n *fabric.Node, fn func()) (completed bool) {
	c := &e.inflight[n.ID()]
	c.Add(1)
	defer c.Add(-1)
	return RunOp(n, fn)
}

// restart revives crashed node i once every client op that was running
// on it has ended. Each such op dies at its next fabric operation, but a
// CPU that sleeps through a crash AND its restart would wake to a live
// node and finish an op whose earlier stores the crash discarded — a
// producer publishing a ring slot its payload never reached. A real crash
// stops every CPU of the node at once; this keeps the harness to that.
func (e *Env) restart(i int) {
	for e.inflight[i].Load() > 0 {
		time.Sleep(20 * time.Microsecond)
	}
	e.Fab.Node(i).Restart()
}

// WaitAlive blocks until n has been restarted. In a sweep the watchdog
// halted, whose nodes stay down, it ends the calling goroutine.
func (e *Env) WaitAlive(n *fabric.Node) {
	for n.Crashed() {
		if e.halted.Load() {
			runtime.Goexit()
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Report is the outcome of one workload sweep.
type Report struct {
	Workload   string
	Seed       int64
	Faults     FaultClass // classes enabled: the ones the workload tolerates
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
	// Stuck says why the watchdog stopped the sweep, "" if it did not.
	// Waits and Stacks then hold every node's open waits and every
	// goroutine's stack cut to the frames of this module.
	Stuck  string
	Waits  []*fabric.WaitRecord
	Stacks string
}

// Passed reports whether every invariant held and the sweep ran to its end.
func (r *Report) Passed() bool { return len(r.Violations) == 0 && r.Stuck == "" }

// Caught reports whether a checker found a violation. A stuck sweep with
// none fails, but catches nothing.
func (r *Report) Caught() bool { return len(r.Violations) > 0 }

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
		if r.Stuck != "" {
			fmt.Fprintf(&b, "  watchdog: %s\n", r.Stuck)
			for _, w := range r.Waits {
				fmt.Fprintf(&b, "  open wait: %s\n", w)
			}
			fmt.Fprintf(&b, "  stacks (flacos frames):\n%s", r.Stacks)
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
	mask := w.Tolerates()
	f := fabric.New(fabric.Config{
		GlobalSize:         globalMemBytes,
		Nodes:              nodes,
		CacheCapacityLines: cacheLines,
		// Accounting-only latency gives the flight recorder deterministic
		// virtual timestamps; it adds no real delay to the sweep.
		Latency:   fabric.DefaultLatency(),
		FaultSeed: cfg.Seed,
	})
	env := &Env{
		Fab:      f,
		Cfg:      cfg,
		Trace:    trace.New(f, trace.Config{RingCap: traceRingCap}),
		inflight: make([]atomic.Int64, nodes),
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
				// A halted sweep's crash unwinds its waiting clients.
				if r := recover(); r != nil && !env.halted.Load() {
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

	rep := &Report{Workload: w.Name(), Seed: cfg.Seed, Faults: mask, Events: schedule}
	stuck := drive(env, w, schedule, done)
	if stuck {
		rep.Stuck = fmt.Sprintf("no client completed an op for %v", watchdogTimeout)
		for i := 0; i < f.NumNodes(); i++ {
			rep.Waits = append(rep.Waits, f.Node(i).Waits()...)
		}
		rep.Stacks = flacosStacks()
	} else {
		quiesce(env, w)
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
	}
	rep.Ops, rep.Violations = env.Ops(), env.takeViolations()
	rep.BitFlips, rep.DroppedWBs = f.Faults().BitFlips(), f.Faults().DroppedWriteBacks()
	if !rep.Passed() {
		// Post-mortem: extract every node's ring — crashed nodes' published
		// events are still in global memory — and attach the merged tail.
		rt := env.Trace.Collector().Snapshot(f.Node(0))
		rep.TraceTimeline = rt.TimelineTail()
		rep.TraceJSON = rt.ChromeJSON()
	}
	if stuck {
		halt(env, rep, done)
	}
	if s, ok := w.(Stopper); ok {
		s.Stop()
	}
	return rep
}

// halt ends a sweep the watchdog found stuck, once its report is made.
// Every node crashes and stays down: a client waiting on the fabric
// unwinds at its next poll, and one waiting for a restart ends in
// WaitAlive. halt returns when every client has ended, or after one more
// watchdog period. The workload's Check never runs; Run then stops its
// goroutines (Stopper), which crashed with their nodes.
func halt(env *Env, rep *Report, done <-chan struct{}) {
	env.halted.Store(true)
	for i := 0; i < env.Fab.NumNodes(); i++ {
		env.Fab.Node(i).Crash()
	}
	select {
	case <-done:
	case <-time.After(watchdogTimeout):
		rep.Stuck += "; a halted client did not end"
	}
}

// flacosStacks returns every goroutine's stack cut to the frames of this
// module, leaving out goroutines that have none.
func flacosStacks() string {
	buf := make([]byte, 1<<20)
	var b strings.Builder
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		lines := strings.Split(g, "\n")
		keep := []string{lines[0]}
		for i := 1; i+1 < len(lines); i += 2 {
			if strings.HasPrefix(lines[i], "flacos/") {
				keep = append(keep, lines[i], lines[i+1])
			}
		}
		if len(keep) > 1 {
			b.WriteString(strings.Join(keep, "\n") + "\n")
		}
	}
	return b.String()
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
			env.restart(i)
			if h, ok := w.(RestartHandler); ok {
				h.HandleRestart(env, i)
			}
		}
	}
}
