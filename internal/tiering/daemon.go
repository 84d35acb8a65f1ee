package tiering

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/memsys"
	"flacos/internal/trace"
)

// Config tunes the daemon's policy. Zero values select the defaults.
type Config struct {
	// PromoteHeat is the decayed heat at which a cold page is pulled back
	// into warm global memory.
	PromoteHeat float64
	// LocalHeat is the decayed heat at which a page qualifies for a
	// node-local DRAM frame on its dominant accessor. Keep LocalHeat >
	// PromoteHeat > Floor: the gap is the promote/demote hysteresis that
	// stops a page oscillating between tiers on epoch noise.
	LocalHeat float64
	// DominantShare is the fraction of a page's heat its dominant node
	// must hold before the page is pinned locally — pages shared evenly
	// across nodes belong in global memory, not in one node's DRAM.
	DominantShare float64
	// Decay multiplies heat each epoch; Floor is the heat below which a
	// page fades out of the tracker. Fading prunes the tracker, it does
	// NOT demote: an idle page keeps its placement until a hotter page
	// needs the space (pressure-driven demotion), so an uncontended fast
	// tier never empties itself. Faded pages carry zero heat, making them
	// the first victims of budget eviction and displacement.
	Decay float64
	Floor float64
	// DisplaceFactor is how much hotter a candidate must be than the
	// coldest resident before it displaces that resident from a full
	// local store (more hysteresis: ties never churn).
	DisplaceFactor float64
	// LocalBudgetPages caps managed node-local pages per node;
	// WarmBudgetPages caps managed warm global pages rack-wide. <= 0
	// means uncapped.
	LocalBudgetPages int
	WarmBudgetPages  int
	// MaxMovesPerStep bounds one step's page moves so a policy swing
	// cannot monopolize the fabric.
	MaxMovesPerStep int
	// Interval is the background cadence of Start. Experiments call Step
	// directly instead, keeping the policy on deterministic virtual time.
	Interval time.Duration
	// HintMaxAge is how long a sched placement hint protects a node from
	// demotions.
	HintMaxAge time.Duration
}

func (c *Config) fillDefaults() {
	if c.PromoteHeat <= 0 {
		c.PromoteHeat = 2
	}
	if c.LocalHeat <= 0 {
		c.LocalHeat = 8
	}
	if c.DominantShare <= 0 {
		c.DominantShare = 0.6
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.5
	}
	if c.Floor <= 0 {
		c.Floor = 0.5
	}
	if c.DisplaceFactor <= 1 {
		c.DisplaceFactor = 1.5
	}
	if c.MaxMovesPerStep <= 0 {
		c.MaxMovesPerStep = 4096
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.HintMaxAge <= 0 {
		c.HintMaxAge = 10 * time.Millisecond
	}
}

// Hints is the slice of sched the daemon consults before demoting: where
// did the scheduler just place this space's work? *sched.Scheduler
// satisfies it.
type Hints interface {
	SpacePlacementHint(spaceID uint64, maxAge time.Duration) (node int, ok bool)
}

// Stats is a snapshot of the daemon's activity counters.
type Stats struct {
	Steps         uint64
	PromotedLocal uint64 // pages pulled into a node-local store
	PromotedWarm  uint64 // pages pulled cold -> warm
	DemotedWarm   uint64 // pages pushed local -> warm
	DemotedCold   uint64 // pages pushed warm -> cold
	FailedMoves   uint64 // CAS losses / stale model, resynced via TierOf
	HintVetoes    uint64 // demotions skipped for a sched-hinted node
	Displaced     uint64 // budget evictions (both tiers)
	DrainEvicted  uint64 // local pages pushed off a drained node
}

// pageState is what the daemon believes about one managed page. The
// daemon never scans the shared page table (a radix walk per page would
// swamp the fabric); it learns only through its own move outcomes, the
// Migrated sampler callback, and Prime.
type pageState struct {
	tier memsys.Tier
	node int16 // owning node for TierLocal, -1 otherwise
}

// Daemon is the background tiering policy for one address space.
type Daemon struct {
	cfg   Config
	sp    *memsys.Space
	mmus  []*memsys.MMU // indexed by node id; nil = node not attached
	heat  *HeatMap
	hints Hints

	migMu    sync.Mutex
	migrated map[uint64]struct{}

	// drained marks nodes the health layer's self-healing controller is
	// moving work off: the daemon stops promoting pages toward them and
	// actively spills their local pages back to warm global memory. The
	// flag outranks the sched hint truce — a drain is a deliberate
	// decision to give up the node's locality, hints notwithstanding.
	drained []atomic.Bool

	// Step-private placement model (Step is single-flight under stepMu).
	stepMu     sync.Mutex
	state      map[uint64]pageState
	localCount []int
	warmCount  int
	scratch    stepScratch

	stats struct {
		steps, promLocal, promWarm, demWarm, demCold atomic.Uint64
		failed, vetoes, displaced, drainEvicted      atomic.Uint64
	}

	tw atomic.Pointer[trace.Writer]

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a daemon for sp. mmus is indexed by node id (nil entries for
// unattached nodes); moves execute through the MMU of the node that
// benefits, so their fabric cost lands on the right virtual clock. hints
// may be nil.
func New(sp *memsys.Space, mmus []*memsys.MMU, cfg Config, hints Hints) *Daemon {
	cfg.fillDefaults()
	return &Daemon{
		cfg:        cfg,
		sp:         sp,
		mmus:       mmus,
		heat:       NewHeatMap(len(mmus)),
		hints:      hints,
		migrated:   make(map[uint64]struct{}),
		drained:    make([]atomic.Bool, len(mmus)),
		state:      make(map[uint64]pageState),
		localCount: make([]int, len(mmus)),
		stop:       make(chan struct{}),
		scratch: stepScratch{
			heatOf:      make(map[uint64]float64),
			planned:     make(map[uint64]bool),
			warmPlanned: make(map[uint64]bool),
			landed:      make(map[uint64]bool),
		},
	}
}

// Heat exposes the daemon's tracker (tests, diagnostics).
func (d *Daemon) Heat() *HeatMap { return d.heat }

// SetTraceWriter points step spans at a flight-recorder writer.
func (d *Daemon) SetTraceWriter(w *trace.Writer) { d.tw.Store(w) }

// Attach installs the daemon as the space's access sampler. Detach
// removes it; samples stop immediately, tracked heat persists.
func (d *Daemon) Attach() { d.sp.SetSampler(d) }

// Detach removes the daemon from the space's translate path.
func (d *Daemon) Detach() { d.sp.SetSampler(nil) }

// Sample implements memsys.Sampler.
func (d *Daemon) Sample(node int, vpn uint64, write bool) {
	d.heat.Sample(node, vpn, write)
}

// Migrated implements memsys.Sampler: a demand migration pulled a local
// page to warm global memory behind the daemon's back; fold it into the
// model at the next step.
func (d *Daemon) Migrated(vpn uint64, fromNode int) {
	d.migMu.Lock()
	d.migrated[vpn] = struct{}{}
	d.migMu.Unlock()
}

// Prime seeds the daemon's model with a page's known tier (node is the
// owner for TierLocal, else ignored) — e.g. after an initial bulk
// placement pass, so the daemon need not rediscover the layout one failed
// move at a time. Not required for correctness: moves resync the model.
func (d *Daemon) Prime(vpn uint64, t memsys.Tier, node int) {
	d.stepMu.Lock()
	d.setState(vpn, t, node)
	d.stepMu.Unlock()
}

// SetNodeDrained marks node as a (non-)target for placement: while
// drained, the node is demoted as a promotion target — no page is
// pulled into its local DRAM, the sched hint truce no longer protects
// its pages, and each Step spills its managed local pages back to warm
// global memory (under the usual per-step move budget). The health
// layer's self-healing controller raises the flag when it drains a
// degrading node and clears it on rejoin. Safe from any goroutine.
func (d *Daemon) SetNodeDrained(node int, drained bool) {
	if node < 0 || node >= len(d.drained) {
		return
	}
	d.drained[node].Store(drained)
}

// NodeDrained reports whether node is currently marked drained.
func (d *Daemon) NodeDrained(node int) bool {
	if node < 0 || node >= len(d.drained) {
		return false
	}
	return d.drained[node].Load()
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() Stats {
	return Stats{
		Steps:         d.stats.steps.Load(),
		PromotedLocal: d.stats.promLocal.Load(),
		PromotedWarm:  d.stats.promWarm.Load(),
		DemotedWarm:   d.stats.demWarm.Load(),
		DemotedCold:   d.stats.demCold.Load(),
		FailedMoves:   d.stats.failed.Load(),
		HintVetoes:    d.stats.vetoes.Load(),
		Displaced:     d.stats.displaced.Load(),
		DrainEvicted:  d.stats.drainEvicted.Load(),
	}
}

// Start runs Step every cfg.Interval until Stop. Background mode trades
// determinism for hands-off operation; experiments call Step themselves.
func (d *Daemon) Start() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(d.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.Step()
			}
		}
	}()
}

// Stop halts the background loop (idempotent) and waits for it.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// setState records a page's tier, keeping the budget counters consistent.
// Caller holds stepMu.
func (d *Daemon) setState(vpn uint64, t memsys.Tier, node int) {
	if prev, ok := d.state[vpn]; ok {
		switch prev.tier {
		case memsys.TierLocal:
			d.localCount[prev.node]--
		case memsys.TierWarm:
			d.warmCount--
		}
	}
	if t == memsys.TierNone {
		delete(d.state, vpn)
		return
	}
	st := pageState{tier: t, node: -1}
	switch t {
	case memsys.TierLocal:
		st.node = int16(node)
		d.localCount[node]++
	case memsys.TierWarm:
		d.warmCount++
	}
	d.state[vpn] = st
}

// resync repairs the model for a page whose move failed: one page-table
// read, the only time the daemon ever consults shared state directly.
func (d *Daemon) resync(m *memsys.MMU, vpn uint64) {
	t, node := m.TierOf(vpn)
	d.setState(vpn, t, node)
	d.stats.failed.Add(1)
}

// execMMU picks the MMU that should execute a move with no natural owner
// (warm<->cold transitions): deterministic spread by page number.
func (d *Daemon) execMMU(vpn uint64) *memsys.MMU {
	n := len(d.mmus)
	for i := 0; i < n; i++ {
		if m := d.mmus[(int(vpn)+i)%n]; m != nil {
			return m
		}
	}
	return nil
}

// plan is one step's decided moves, grouped per executing node (indexed
// by node id) so each group becomes one batched (single-IPI) memsys call.
type plan struct {
	promoteLocal [][]uint64 // by dest node: pages warm/cold -> local
	promoteWarm  [][]uint64 // by exec node: pages cold -> warm
	demoteWarm   [][]uint64 // by owner node: pages local -> warm
	demoteCold   [][]uint64 // by exec node: pages warm -> cold
	moves        int
}

// reset empties the plan for a rack of the given node count, keeping
// every list's storage.
func (pl *plan) reset(nodes int) {
	pl.promoteLocal = emptyByNode(pl.promoteLocal, nodes)
	pl.promoteWarm = emptyByNode(pl.promoteWarm, nodes)
	pl.demoteWarm = emptyByNode(pl.demoteWarm, nodes)
	pl.demoteCold = emptyByNode(pl.demoteCold, nodes)
	pl.moves = 0
}

func emptyByNode[T any](s [][]T, nodes int) [][]T {
	if len(s) != nodes {
		return make([][]T, nodes)
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// stepScratch is what Step works in, kept across steps so that a step
// over a tracked set no larger than before allocates nothing. Guarded by
// stepMu; nothing in it outlives the step that filled it.
type stepScratch struct {
	mig         []uint64
	hot         []PageStat
	faded       []uint64
	byHeat      []PageStat
	heatOf      map[uint64]float64
	planned     map[uint64]bool // pages some stage of this step moves
	warmPlanned map[uint64]bool // pages planWarmBudget must not pick
	coldest     [][]PageStat    // by node: managed local pages, coldest first
	displace    [][]PageStat    // by node: what is left of coldest to displace
	coldestWarm []PageStat
	cands       []PageStat
	landed      map[uint64]bool // pages a batch in execute moved
	plan        plan
}

// hotterFirst orders pages by heat descending, then VPN ascending.
func hotterFirst(a, b PageStat) int {
	if c := cmp.Compare(b.Heat, a.Heat); c != 0 {
		return c
	}
	return cmp.Compare(a.VPN, b.VPN)
}

// colderFirst orders pages by heat ascending, then VPN ascending: the
// eviction and displacement order.
func colderFirst(a, b PageStat) int {
	if c := cmp.Compare(a.Heat, b.Heat); c != 0 {
		return c
	}
	return cmp.Compare(a.VPN, b.VPN)
}

// Step runs one policy epoch synchronously: fold the heat map, decide
// promotions and demotions under budgets, hysteresis and the sched hint
// veto, then execute them as per-node batches. Fully deterministic for a
// given sample/migration history.
func (d *Daemon) Step() {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	step := d.stats.steps.Add(1)
	sc := &d.scratch

	// 1. Fold demand-migration feedback into the model: those pages now
	// sit in warm global memory whatever we believed before.
	d.migMu.Lock()
	sc.mig = sc.mig[:0]
	for vpn := range d.migrated {
		sc.mig = append(sc.mig, vpn)
	}
	clear(d.migrated)
	d.migMu.Unlock()
	slices.Sort(sc.mig)
	for _, vpn := range sc.mig {
		d.setState(vpn, memsys.TierWarm, -1)
	}

	// 2. End the sampling epoch. Faded pages just leave the tracker; with
	// zero heat they become the preferred victims of budget pressure, but
	// nothing demotes them while the space is uncontended.
	sc.hot, sc.faded = d.heat.FoldEpoch(d.cfg.Decay, d.cfg.Floor, sc.hot[:0], sc.faded[:0])
	hot := sc.hot
	clear(sc.heatOf)
	for _, ps := range hot {
		sc.heatOf[ps.VPN] = ps.Heat
	}

	// 3. The sched truce: a node that just received placements keeps its
	// pages this step — unless the health layer drained it, in which case
	// the truce yields (the drain already decided the node loses its
	// work, so protecting its pages would only delay the re-place).
	veto := -1
	if d.hints != nil {
		if n, ok := d.hints.SpacePlacementHint(d.sp.ID, d.cfg.HintMaxAge); ok && !d.NodeDrained(n) {
			veto = n
		}
	}

	if w := d.tw.Load(); w != nil {
		w.Begin(trace.SubMemsys, trace.KPromote, step, uint64(len(hot)))
	}

	pl := &sc.plan
	pl.reset(len(d.mmus))
	clear(sc.planned)
	d.planDrainEvictions(pl)
	d.planPromotions(pl, hot, veto)
	d.planWarmBudget(pl)
	d.execute(pl)

	if w := d.tw.Load(); w != nil {
		w.End(trace.SubMemsys, trace.KPromote, step, uint64(pl.moves))
	}
}

// planDrainEvictions spills every managed local page off drained nodes
// back to warm global memory — the "re-place" stage of the self-healing
// pipeline. It runs before promotion planning and marks what it plans in
// the step's planned set so later stages never double-move the same page.
func (d *Daemon) planDrainEvictions(pl *plan) {
	planned := d.scratch.planned
	for n := range d.mmus {
		if !d.drained[n].Load() || d.localCount[n] == 0 {
			continue
		}
		vpns := pl.demoteWarm[n]
		for vpn, st := range d.state {
			if st.tier == memsys.TierLocal && int(st.node) == n {
				vpns = append(vpns, vpn)
			}
		}
		slices.Sort(vpns)
		if room := d.cfg.MaxMovesPerStep - pl.moves; len(vpns) > room {
			vpns = vpns[:room]
		}
		for _, vpn := range vpns {
			planned[vpn] = true
		}
		pl.demoteWarm[n] = vpns
		pl.moves += len(vpns)
		d.stats.drainEvicted.Add(uint64(len(vpns)))
		if pl.moves >= d.cfg.MaxMovesPerStep {
			return
		}
	}
}

// planPromotions walks the hot pages hottest-first and plans upward moves.
func (d *Daemon) planPromotions(pl *plan, hot []PageStat, veto int) {
	sc := &d.scratch
	heatOf, planned := sc.heatOf, sc.planned
	sc.byHeat = append(sc.byHeat[:0], hot...)
	byHeat := sc.byHeat
	slices.SortFunc(byHeat, hotterFirst)

	// coldest is built lazily per node: managed local pages coldest
	// first, the displacement order.
	var coldest [][]PageStat
	buildColdest := func() {
		sc.coldest = emptyByNode(sc.coldest, len(d.mmus))
		for vpn, st := range d.state {
			if st.tier == memsys.TierLocal {
				sc.coldest[st.node] = append(sc.coldest[st.node], PageStat{VPN: vpn, Heat: heatOf[vpn]})
			}
		}
		sc.displace = emptyByNode(sc.displace, len(d.mmus))
		for n, s := range sc.coldest {
			slices.SortFunc(s, colderFirst)
			sc.displace[n] = s
		}
		coldest = sc.displace
	}

	// coldestWarm, same idea rack-wide: the eviction order when a cold
	// page asks for a slot in a full premium tier.
	var coldestWarm []PageStat
	warmBuilt := false
	buildColdestWarm := func() {
		warmBuilt = true
		sc.coldestWarm = sc.coldestWarm[:0]
		for vpn, st := range d.state {
			if st.tier == memsys.TierWarm {
				sc.coldestWarm = append(sc.coldestWarm, PageStat{VPN: vpn, Heat: heatOf[vpn]})
			}
		}
		slices.SortFunc(sc.coldestWarm, colderFirst)
		coldestWarm = sc.coldestWarm
	}

	// projWarm tracks what warm occupancy will be once this plan executes,
	// so admission decisions see the step's own earlier moves.
	projWarm := d.warmCount

	for _, ps := range byHeat {
		if pl.moves >= d.cfg.MaxMovesPerStep {
			return
		}
		if planned[ps.VPN] {
			continue // already moving this step (drain spill)
		}
		st, managed := d.state[ps.VPN]
		dom := ps.Node
		// A drained node never qualifies as a local home, however hot the
		// page: the self-healing controller is moving work off it.
		wantLocal := ps.Heat >= d.cfg.LocalHeat && ps.Share >= d.cfg.DominantShare &&
			dom >= 0 && dom < len(d.mmus) && d.mmus[dom] != nil && !d.drained[dom].Load()
		switch {
		case wantLocal && managed && st.tier == memsys.TierLocal && int(st.node) == dom:
			// Already where it belongs.
		case wantLocal && managed && st.tier == memsys.TierLocal:
			// Pinned on the wrong node: pull it down this step, the next
			// step promotes it home (one move per step per page).
			if int(st.node) == veto {
				d.stats.vetoes.Add(1)
				continue
			}
			pl.demoteWarm[int(st.node)] = append(pl.demoteWarm[int(st.node)], ps.VPN)
			planned[ps.VPN] = true
			pl.moves++
			projWarm++
		case wantLocal:
			if d.cfg.LocalBudgetPages > 0 && d.localCount[dom] >= d.cfg.LocalBudgetPages {
				// Full: displace the coldest resident only if this page is
				// clearly hotter (DisplaceFactor hysteresis).
				if dom == veto {
					d.stats.vetoes.Add(1)
					continue
				}
				if coldest == nil {
					buildColdest()
				}
				q := coldest[dom]
				for len(q) > 0 && (planned[q[0].VPN] || d.state[q[0].VPN].tier != memsys.TierLocal) {
					q = q[1:]
				}
				coldest[dom] = q
				if len(q) > 0 && q[0].Heat*d.cfg.DisplaceFactor < ps.Heat {
					v := q[0]
					coldest[dom] = q[1:]
					pl.demoteWarm[dom] = append(pl.demoteWarm[dom], v.VPN)
					planned[v.VPN] = true
					pl.moves++
					projWarm++
					d.stats.displaced.Add(1)
				}
				continue // promote once room exists (next step)
			}
			pl.promoteLocal[dom] = append(pl.promoteLocal[dom], ps.VPN)
			planned[ps.VPN] = true
			pl.moves++
			if managed && st.tier == memsys.TierWarm {
				projWarm-- // leaves premium capacity for local DRAM
			}
		case ps.Heat >= d.cfg.PromoteHeat && (!managed || st.tier == memsys.TierCold):
			// Cold (or unknown — assumed cold; the move resyncs if not)
			// and hot enough for premium capacity.
			if d.cfg.WarmBudgetPages > 0 && projWarm >= d.cfg.WarmBudgetPages {
				// Premium is full: swap only when the candidate is clearly
				// hotter than the coldest resident (the same DisplaceFactor
				// hysteresis local placement uses). A page moves warm<->cold
				// at full-page copy cost, so near-ties must never churn.
				if !warmBuilt {
					buildColdestWarm()
				}
				q := coldestWarm
				for len(q) > 0 && (planned[q[0].VPN] || d.state[q[0].VPN].tier != memsys.TierWarm) {
					q = q[1:]
				}
				coldestWarm = q
				if len(q) == 0 || q[0].Heat*d.cfg.DisplaceFactor >= ps.Heat {
					continue // not clearly hotter than any resident
				}
				v := q[0]
				coldestWarm = q[1:]
				m := d.execMMU(v.VPN)
				if m == nil {
					continue
				}
				pl.demoteCold[m.Node().ID()] = append(pl.demoteCold[m.Node().ID()], v.VPN)
				planned[v.VPN] = true
				pl.moves++
				projWarm--
				d.stats.displaced.Add(1)
			}
			pl.promoteWarm[dom] = append(pl.promoteWarm[dom], ps.VPN)
			planned[ps.VPN] = true
			pl.moves++
			projWarm++
		}
	}
}

// planWarmBudget evicts the coldest managed warm pages when the step's
// plan would still overflow premium capacity (local -> warm spills bypass
// the admission check above). Together with planPromotions' inline warm
// displacement it forms the ONLY path to the cold tier: demotion happens
// under pressure, never on fade alone, so warm capacity stays packed with
// the hottest pages ever observed. The daemon
// only evicts what it placed (or was told about via Prime/Migrated), so it
// never cold-demotes another subsystem's pages on no evidence.
func (d *Daemon) planWarmBudget(pl *plan) {
	if d.cfg.WarmBudgetPages <= 0 {
		return
	}
	projected := d.warmCount
	for _, v := range pl.promoteWarm {
		projected += len(v)
	}
	for _, v := range pl.demoteWarm {
		projected += len(v) // local -> warm also lands in premium
	}
	for _, v := range pl.demoteCold {
		projected -= len(v)
	}
	over := projected - d.cfg.WarmBudgetPages
	if over <= 0 {
		return
	}
	sc := &d.scratch
	planned := sc.warmPlanned
	clear(planned)
	for _, vs := range pl.promoteWarm {
		for _, v := range vs {
			planned[v] = true
		}
	}
	for _, vs := range pl.demoteCold {
		for _, v := range vs {
			planned[v] = true
		}
	}
	cands := sc.cands[:0]
	for vpn, st := range d.state {
		if st.tier == memsys.TierWarm && !planned[vpn] {
			cands = append(cands, PageStat{VPN: vpn, Heat: sc.heatOf[vpn]})
		}
	}
	sc.cands = cands
	slices.SortFunc(cands, colderFirst)
	for _, c := range cands {
		if over <= 0 || pl.moves >= d.cfg.MaxMovesPerStep {
			return
		}
		if m := d.execMMU(c.VPN); m != nil {
			pl.demoteCold[m.Node().ID()] = append(pl.demoteCold[m.Node().ID()], c.VPN)
			pl.moves++
			over--
			d.stats.displaced.Add(1)
		}
	}
}

// execute runs the plan as per-node batches in node order — deterministic
// and one shootdown IPI per remote MMU per batch — then folds outcomes
// back into the model.
func (d *Daemon) execute(pl *plan) {
	ok := d.scratch.landed
	run := func(byNode [][]uint64,
		exec func(*memsys.MMU, []uint64) []uint64,
		apply func(vpn uint64, node int)) {
		for n := 0; n < len(d.mmus); n++ {
			vpns := byNode[n]
			if len(vpns) == 0 || d.mmus[n] == nil {
				continue
			}
			slices.Sort(vpns)
			moved := exec(d.mmus[n], vpns)
			clear(ok)
			for _, v := range moved {
				ok[v] = true
				apply(v, n)
			}
			for _, v := range vpns {
				if !ok[v] {
					d.resync(d.mmus[n], v)
				}
			}
		}
	}

	// Demotions first: they free the budget the promotions rely on.
	run(pl.demoteWarm,
		func(m *memsys.MMU, v []uint64) []uint64 { return m.DemoteToGlobalBatch(v) },
		func(vpn uint64, node int) {
			d.setState(vpn, memsys.TierWarm, -1)
			d.stats.demWarm.Add(1)
		})
	run(pl.demoteCold,
		func(m *memsys.MMU, v []uint64) []uint64 { return m.DemoteToColdBatch(v) },
		func(vpn uint64, node int) {
			d.setState(vpn, memsys.TierCold, -1)
			d.stats.demCold.Add(1)
		})
	run(pl.promoteWarm,
		func(m *memsys.MMU, v []uint64) []uint64 { return m.PromoteFromColdBatch(v) },
		func(vpn uint64, node int) {
			d.setState(vpn, memsys.TierWarm, -1)
			d.stats.promWarm.Add(1)
		})
	run(pl.promoteLocal,
		func(m *memsys.MMU, v []uint64) []uint64 { return m.PromoteToLocalBatch(v) },
		func(vpn uint64, node int) {
			d.setState(vpn, memsys.TierLocal, node)
			d.stats.promLocal.Add(1)
		})
}
