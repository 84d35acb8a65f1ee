package main

import (
	"runtime"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/loadgen"
)

// Every workload sorts its ops into two classes whose latency is reported.
const (
	classRead = iota
	classWrite
)

// plantFault makes every driver expect one output that the program, being
// correct, will not produce, so the tests can show that a failed check
// reaches failed_share. Nothing but the tests sets it.
var plantFault bool

// served is one measured op: the lane that ran it and what it cost.
type served struct {
	lane int
	ns   uint64
}

// rep is what one repetition on a fresh rack measured.
type rep struct {
	setup   time.Duration // host: start of the repetition to the first measured op
	ref     time.Duration // host: the quickest speed reference taken around set-up
	host    time.Duration // host: the measured phase (advisory)
	lat     [2][]uint64   // simulated ns of every op, by class
	service []served      // every op in issue order, for the open-loop replay
	laneNS  []uint64      // simulated ns each lane's nodes spent in the measured phase
	fab     fabric.NodeStatsSnapshot
	ops     int
	audited int // output checks made after the measured phase
	failed  int // ops or audit checks whose output was wrong

	allocB, mallocs uint64 // host heap traffic of the measured phase

	ledgerNS uint64             // traced: simulated ns the measured phase's spans add up to
	layer    map[string]float64 // per-layer numbers only the driver can see
}

// meter measures one repetition. A driver calls startRep first thing,
// measure once its rack is built, preloaded and warm, begin/end around
// every op, and finish after the last one. A lane is the set of nodes
// whose simulated time adds up to one closed loop (client and server of a
// connection; one serving node of a rack store): lanes run in parallel in
// the model, the nodes inside one do not.
type meter struct {
	*rep
	tr     *tracer
	opKind *spanKind
	f      *fabric.Fabric
	lanes  [][]int
	t0, tm time.Time
	mem    runtime.MemStats
	before []fabric.NodeStatsSnapshot
	led0   uint64
	v0     uint64
}

func startRep(tr *tracer) *meter {
	ref := hostRef()
	return &meter{rep: &rep{ref: ref, layer: map[string]float64{}}, tr: tr, opKind: tr.kind("driver", "op"), t0: time.Now()}
}

// The host-speed reference behind setup_s. This host is a few cores of a
// shared machine whose speed wanders by 30-40% for minutes at a time (user
// CPU time of identical work, not steal), which no statistic over one
// run's repetitions can remove: two sets of ten runs of the same code had
// set-up medians 19-44% apart on every workload. So each set-up is
// bracketed by a fixed piece of bench-owned work, and setup_s is set-up
// wall time scaled by refNominal over the quickest reference timing beside
// it: seconds at the host's nominal speed. The same bracketing took the
// drift between the halves of three 10-minute series from 7-22% to under
// 6%. The reference calls nothing under test, so no later change to the
// program can move it, and it allocates nothing once built.
const refNominal = 11500 * time.Microsecond

// refRounds is how many times the reference runs on either side of a
// set-up. (A variable so the tests can switch the reference off.)
var refRounds = 3

var refState struct {
	buf  []uint64
	idx  map[uint64]uint64
	sink uint64
}

// hostRef times the reference work, a mix of what set-up does (arithmetic
// with streaming stores, dependent loads, map probes), and returns the
// quickest of refRounds passes: interference only ever adds time.
func hostRef() time.Duration {
	const words, keys, golden = 1 << 19, 1 << 15, 0x9e3779b97f4a7c15
	st := &refState
	if st.buf == nil {
		st.buf = make([]uint64, words)
		st.idx = make(map[uint64]uint64, keys)
		for i := uint64(0); i < keys; i++ {
			st.idx[i*golden] = i
		}
	}
	best := refNominal
	for round := 0; round < refRounds; round++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := range st.buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			st.buf[i] = x
		}
		var at, sum uint64
		for i := uint64(0); i < words/2; i++ {
			at = st.buf[at%words] + i
		}
		for i := uint64(0); i < 4*keys; i++ {
			sum += st.idx[i%keys*golden]
		}
		st.sink += at + sum
		if d := time.Since(t); round == 0 || d < best {
			best = d
		}
	}
	return best
}

// setupSeconds is set-up time at the host's nominal speed.
func (r *rep) setupSeconds() float64 {
	return r.setup.Seconds() * refNominal.Seconds() / r.ref.Seconds()
}

func virtNow(f *fabric.Fabric) uint64 {
	var ns uint64
	for i := 0; i < f.NumNodes(); i++ {
		ns += f.Node(i).VirtualNS()
	}
	return ns
}

func nodeStats(f *fabric.Fabric) []fabric.NodeStatsSnapshot {
	s := make([]fabric.NodeStatsSnapshot, f.NumNodes())
	for i := range s {
		s[i] = f.Node(i).Stats()
	}
	return s
}

// measure ends set-up. The sample slices are sized here so the bench's
// own bookkeeping allocates nothing inside the measured phase.
func (m *meter) measure(f *fabric.Fabric, lanes [][]int, reads, writes int) {
	m.setup = time.Since(m.t0)
	m.ref = min(m.ref, hostRef())
	m.f, m.lanes = f, lanes
	m.lat[classRead] = make([]uint64, 0, reads)
	m.lat[classWrite] = make([]uint64, 0, writes)
	m.service = make([]served, 0, reads+writes)
	m.before = nodeStats(f)
	m.tr.enable(f)
	_, ledger, _ := m.tr.sum("")
	m.led0 = ledger.VirtualNS
	runtime.ReadMemStats(&m.mem)
	m.tm = time.Now()
}

func (m *meter) begin() {
	m.tr.nextOp()
	m.tr.begin(m.opKind)
	m.v0 = virtNow(m.f)
}

// end records the op begun last: its latency is what the whole rack was
// charged while it ran (only its participants ran).
func (m *meter) end(class, lane int, ok bool) {
	ns := virtNow(m.f) - m.v0
	m.tr.end(m.opKind)
	m.lat[class] = append(m.lat[class], ns)
	m.service = append(m.service, served{lane, ns})
	m.ops++
	if !ok {
		m.failed++
	}
}

func (m *meter) finish() *rep {
	m.host = time.Since(m.tm)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.allocB, m.mallocs = mem.TotalAlloc-m.mem.TotalAlloc, mem.Mallocs-m.mem.Mallocs
	after := nodeStats(m.f)
	m.laneNS = make([]uint64, len(m.lanes))
	for l, nodes := range m.lanes {
		for _, n := range nodes {
			m.laneNS[l] += after[n].VirtualNS - m.before[n].VirtualNS
		}
	}
	for n := range after {
		m.fab = addStats(m.fab, after[n].Delta(m.before[n]))
	}
	_, ledger, _ := m.tr.sum("")
	m.ledgerNS = ledger.VirtualNS - m.led0
	m.tr.disable()
	return m.rep
}

// opsPerSimSecond is measured ops over the busiest lane's simulated time.
func (r *rep) opsPerSimSecond() float64 {
	var busiest uint64
	for _, ns := range r.laneNS {
		busiest = max(busiest, ns)
	}
	return ratio(float64(r.ops)*1e9, float64(busiest))
}

// replayArrivals is how many open-loop arrivals virt_load_p99_ns is taken
// over: the recorded service times are replayed end to end as often as it
// takes. One pass is too few: the p99 of 128 container starts rests on a
// single sample, and at 400,000 arrivals the p99 of a queue at 65% load
// still moves 2% with the arrival schedule. (A variable so the tests can
// shrink it.)
var replayArrivals = 1600000

// loadP99 replays the recorded per-op service times, in issue order and on
// the lane that served them, against Poisson arrivals at rate ops per
// simulated second, one FIFO server per lane, and returns the p99 of the
// time from when each request was due to when it completed, so the wait a
// slow op imposes on the requests behind it counts. The schedule is
// virtual: the generator is never late.
func (r *rep) loadP99(seed uint64, rate float64) float64 {
	arr := loadgen.NewArrivals(seed+7, rate)
	freeAt := make([]uint64, len(r.laneNS))
	passes := (replayArrivals + len(r.service) - 1) / len(r.service)
	sojourn := make([]uint64, 0, passes*len(r.service))
	for p := 0; p < passes; p++ {
		for _, op := range r.service {
			due := arr.Next()
			done := max(due, freeAt[op.lane]) + op.ns
			freeAt[op.lane] = done
			sojourn = append(sojourn, done-due)
		}
	}
	return percentile(sortU64(sojourn), 99)
}
