package tiering

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/memsys"
)

// Config tunes the daemon's policy. Zero values select the defaults.
type Config struct {
	// PromoteHeat is the decayed heat at which a cold page is pulled back
	// into warm global memory.
	PromoteHeat float64
	// LocalHeat is the decayed heat at which a page qualifies for a
	// node-local DRAM frame on its dominant accessor. Keep LocalHeat >
	// PromoteHeat > fadeFloor: the gap is the promote/demote hysteresis
	// that stops a page oscillating between tiers on epoch noise.
	LocalHeat float64
	// Decay multiplies heat each epoch.
	Decay float64
	// LocalBudgetPages caps managed node-local pages per node;
	// WarmBudgetPages caps managed warm global pages rack-wide. <= 0
	// means uncapped.
	LocalBudgetPages int
	WarmBudgetPages  int
	// MaxMovesPerStep bounds one step's page moves so a policy swing
	// cannot monopolize the fabric.
	MaxMovesPerStep int
}

// The policy's fixed constants.
const (
	// dominantShare is the fraction of a page's heat its dominant node
	// must hold before the page is pinned locally — pages shared evenly
	// across nodes belong in global memory, not in one node's DRAM.
	dominantShare = 0.6
	// fadeFloor is the heat below which a page fades out of the tracker.
	// Fading prunes the tracker, it does NOT demote: an idle page keeps
	// its placement until a hotter page needs the space (pressure-driven
	// demotion), so an uncontended fast tier never empties itself. Faded
	// pages carry zero heat, making them the first victims of budget
	// eviction and displacement.
	fadeFloor = 0.5
	// displaceFactor is how much hotter a candidate must be than the
	// coldest resident before it displaces that resident from a full
	// tier (more hysteresis: ties never churn).
	displaceFactor = 1.5
	// hintMaxAge is how long a placement hint protects a node from
	// demotions.
	hintMaxAge = 10 * time.Millisecond
)

func (c *Config) fillDefaults() {
	if c.PromoteHeat <= 0 {
		c.PromoteHeat = 2
	}
	if c.LocalHeat <= 0 {
		c.LocalHeat = 8
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.5
	}
	if c.MaxMovesPerStep <= 0 {
		c.MaxMovesPerStep = 4096
	}
}

// Hints is what the daemon consults before demoting: where was this
// space's work just placed? No placer implements it any more (every
// caller passes nil); it goes once the last four-argument New call does.
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
	Displaced     uint64 // budget evictions (both tiers)
}

// pageState is what the daemon believes about one managed page. The
// daemon never scans the shared page table (a radix walk per page would
// swamp the fabric); it learns only through its own move outcomes, the
// Migrated sampler callback, and Prime.
type pageState struct {
	tier memsys.Tier
	node int16 // owning node for TierLocal, -1 otherwise
}

// Daemon is the tiering policy for one address space. It moves pages
// only when its caller runs a Step.
type Daemon struct {
	cfg   Config
	sp    *memsys.Space
	mmus  []*memsys.MMU // indexed by node id; nil = node not attached
	heat  *HeatMap
	hints Hints

	migMu    sync.Mutex
	migrated map[uint64]struct{}

	// attached is each node's virtual clock and translation count when
	// Attach ran: the executor of a step's owner-less work is chosen by
	// what the nodes have done since. Guarded by stepMu.
	attached []nodeMark

	// Step-private placement model (Step is single-flight under stepMu).
	stepMu     sync.Mutex
	state      map[uint64]pageState
	localCount []int
	warmCount  int
	scratch    stepScratch

	stats struct {
		steps, promLocal, promWarm, demWarm, demCold atomic.Uint64
		failed, displaced                            atomic.Uint64
	}
}

// New builds a daemon for sp. mmus is indexed by node id (nil entries for
// unattached nodes). A move that changes a page's home runs on the node
// at either end of it: a local promotion on the node that receives the
// page, a local demotion on the node that gives it up. Everything else a
// step does belongs to no node — warm<->cold moves, which flip a bit on a
// frame that stays put, and the release of the frames local promotions
// vacate — and runs on the step's executor (see executor). hints may be
// nil.
func New(sp *memsys.Space, mmus []*memsys.MMU, cfg Config, hints Hints) *Daemon {
	cfg.fillDefaults()
	return &Daemon{
		cfg:        cfg,
		sp:         sp,
		mmus:       mmus,
		heat:       NewHeatMap(len(mmus)),
		hints:      hints,
		migrated:   make(map[uint64]struct{}),
		attached:   make([]nodeMark, len(mmus)),
		state:      make(map[uint64]pageState),
		localCount: make([]int, len(mmus)),
		scratch: stepScratch{
			planned:  make(map[uint64]bool),
			sentCold: make(map[uint64]bool),
			landed:   make(map[uint64]bool),
		},
	}
}

// Attach installs the daemon as the space's access sampler and marks the
// clocks and translation counts the executor is chosen by. Detach removes
// it; samples stop immediately, tracked heat persists.
func (d *Daemon) Attach() {
	d.stepMu.Lock()
	for n, m := range d.mmus {
		if m != nil {
			d.attached[n] = markNode(m)
		}
	}
	d.stepMu.Unlock()
	d.sp.SetSampler(d)
}

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

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() Stats {
	return Stats{
		Steps:         d.stats.steps.Load(),
		PromotedLocal: d.stats.promLocal.Load(),
		PromotedWarm:  d.stats.promWarm.Load(),
		DemotedWarm:   d.stats.demWarm.Load(),
		DemotedCold:   d.stats.demCold.Load(),
		FailedMoves:   d.stats.failed.Load(),
		Displaced:     d.stats.displaced.Load(),
	}
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

// nodeMark is a node's virtual clock and its MMU's translation count.
type nodeMark struct{ ns, translations uint64 }

func markNode(m *memsys.MMU) nodeMark {
	st := m.Stats()
	return nodeMark{ns: m.Node().VirtualNS(), translations: st.TLBHits + st.TLBMisses}
}

// sinceAttach is what node n, whose MMU is m, has done since Attach. A
// clock reset after Attach (fabric.Node.ResetStats) wraps to a huge
// figure, so that node is passed over unless nothing else can run.
func (d *Daemon) sinceAttach(n int, m *memsys.MMU) nodeMark {
	now, at := markNode(m), d.attached[n]
	return nodeMark{ns: now.ns - at.ns, translations: now.translations - at.translations}
}

// executor picks the node that runs a step's owner-less work from the
// attached nodes that have not crashed, by what each has done since
// Attach. Two measures of a node's load disagree when the nodes serve
// unequal shares of the accesses. By its clock, a node that served few
// accesses looks idle. By its time per access, which is its load if the
// accesses were dealt out evenly, the same node can be the slowest, the
// one an even deal saturates first. So the node slowest per access never
// runs the work, unless it is the only candidate; of the rest, the one
// whose clock has advanced least does. Ties go to the lowest id. It is
// nil when no node qualifies. Caller holds stepMu.
func (d *Daemon) executor() *memsys.MMU {
	slowest, slowestNS := -1, 0.0
	for n, m := range d.mmus {
		if d.canExecute(n) {
			s := d.sinceAttach(n, m)
			if per := float64(s.ns) / float64(max(s.translations, 1)); slowest < 0 || per > slowestNS {
				slowest, slowestNS = n, per
			}
		}
	}
	best, bestNS := -1, uint64(0)
	for n, m := range d.mmus {
		if n != slowest && d.canExecute(n) {
			if ns := d.sinceAttach(n, m).ns; best < 0 || ns < bestNS {
				best, bestNS = n, ns
			}
		}
	}
	if best < 0 {
		best = slowest
	}
	if best < 0 {
		return nil
	}
	return d.mmus[best]
}

// canExecute reports whether node n can run owner-less work: attached
// and not crashed.
func (d *Daemon) canExecute(n int) bool {
	m := d.mmus[n]
	return m != nil && !m.Node().Crashed()
}

// plan is one step's decided moves. A move with an owner is grouped under
// its node (indexed by node id), so each group becomes one batched
// (single-IPI) memsys call on that node; the owner-less moves are one
// batch each, for the step's executor.
type plan struct {
	promoteLocal [][]uint64 // by dest node: pages warm/cold -> local
	demoteWarm   [][]uint64 // by owner node: pages local -> warm
	promoteWarm  []uint64   // pages cold -> warm
	demoteCold   []uint64   // pages warm -> cold
	moves        int
}

// reset empties the plan for a rack of the given node count, keeping
// every list's storage.
func (pl *plan) reset(nodes int) {
	pl.promoteLocal = emptyByNode(pl.promoteLocal, nodes)
	pl.demoteWarm = emptyByNode(pl.demoteWarm, nodes)
	pl.promoteWarm = pl.promoteWarm[:0]
	pl.demoteCold = pl.demoteCold[:0]
	pl.moves = 0
}

func emptyByNode[S ~[]T, T any](s []S, nodes int) []S {
	if len(s) != nodes {
		return make([]S, nodes)
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// stepScratch is what Step works in, kept across steps so that a step
// over a tracked set no larger than before allocates nothing. Buffers
// whose size the daemon knows before filling them (the tracked count, a
// tier's managed pages) are sized once from it, so a fresh daemon does
// not pay an append-growth chain for them. Guarded by stepMu; nothing in
// it outlives the step that filled it.
type stepScratch struct {
	mig         []uint64
	hot         []PageStat // the step's fold, VPN ascending: its heat of record
	faded       []uint64
	movers      []PageStat      // hot pages planPromotions acts on, hottest first
	planned     map[uint64]bool // pages some stage of this step moves
	sentCold    map[uint64]bool // warm pages planPromotions demotes to cold
	residents   bool            // warm and coldest are this step's
	warm        []victim        // managed warm pages
	coldest     []victimHeap    // by node: managed local pages
	coldestWarm victimHeap      // managed warm pages
	cands       victimHeap      // managed warm pages planWarmBudget may evict
	landed      map[uint64]bool // pages a batch in execute moved
	vacated     []uint64        // global frames this step's local promotions left
	plan        plan
}

// hotterFirst orders pages by heat descending, then VPN ascending.
func hotterFirst(a, b PageStat) int {
	if c := cmp.Compare(b.Heat, a.Heat); c != 0 {
		return c
	}
	return cmp.Compare(a.VPN, b.VPN)
}

// victim is a managed page and its heat this step: a candidate for
// eviction or displacement.
type victim struct {
	vpn  uint64
	heat float64
}

// colder is the eviction and displacement order: heat ascending, then
// VPN ascending. It is total, since no two victims share a page.
func colder(a, b victim) bool {
	return a.heat < b.heat || a.heat == b.heat && a.vpn < b.vpn
}

// victimHeap is a binary min-heap in colder order. init builds it in
// O(n) and pop takes the coldest page in O(log n), so the pages a step
// pops come out in the order a full sort would give, and the step pays
// only for the ones it takes.
type victimHeap []victim

func (h victimHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *victimHeap) pop() victim {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s[:n].down(0)
	*h = s[:n]
	return s[n]
}

func (h victimHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && colder(h[r], h[c]) {
			c = r
		}
		if !colder(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// skipPlanned pops the pages some stage of this step already moves.
func (h *victimHeap) skipPlanned(planned map[uint64]bool) {
	for len(*h) > 0 && planned[(*h)[0].vpn] {
		h.pop()
	}
}

// heatIn returns vpn's heat in hot, a fold sorted by VPN: zero for a page
// the fold did not return, untracked or faded.
func heatIn(hot []PageStat, vpn uint64) float64 {
	i, ok := slices.BinarySearchFunc(hot, vpn, func(ps PageStat, v uint64) int { return cmp.Compare(ps.VPN, v) })
	if !ok {
		return 0
	}
	return hot[i].Heat
}

// Step runs one policy epoch synchronously: fold the heat map, decide
// promotions and demotions under budgets, hysteresis and the sched hint
// veto, then execute them as per-node batches. Fully deterministic for a
// given sample/migration history.
func (d *Daemon) Step() {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.stats.steps.Add(1)
	hot, veto := d.foldEpoch()
	d.execute(d.planStep(hot, veto))
}

// foldEpoch ends the sampling epoch. It returns the step's hot pages, VPN
// ascending, and the node the sched truce protects (-1 for none).
func (d *Daemon) foldEpoch() (hot []PageStat, veto int) {
	sc := &d.scratch

	// Demand-migration feedback first: those pages now sit in warm global
	// memory whatever we believed before.
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

	// Faded pages just leave the tracker; with zero heat they become the
	// preferred victims of budget pressure, but nothing demotes them while
	// the space is uncontended.
	sc.hot, sc.faded = d.heat.FoldEpoch(d.cfg.Decay, sc.hot[:0], sc.faded[:0])

	// The sched truce: a node that just received placements keeps its
	// pages this step.
	veto = -1
	if d.hints != nil {
		if n, ok := d.hints.SpacePlacementHint(d.sp.ID, hintMaxAge); ok {
			veto = n
		}
	}
	return sc.hot, veto
}

// planStep decides the step's moves: promotions hottest first, then
// warm-budget evictions.
func (d *Daemon) planStep(hot []PageStat, veto int) *plan {
	sc := &d.scratch
	pl := &sc.plan
	pl.reset(len(d.mmus))
	clear(sc.planned)
	sc.residents = false
	d.planPromotions(pl, hot, veto)
	d.planWarmBudget(pl, hot)
	return pl
}

// collectResidents gathers, with this step's heat, the managed warm pages
// and each node's managed local pages, the latter as the per-node
// displacement order (coldest first). Planning changes no page's state,
// so one pass over the model serves the whole step; it is made at most
// once a step, and only when a full tier needs a victim.
func (d *Daemon) collectResidents(hot []PageStat) {
	sc := &d.scratch
	if sc.residents {
		return
	}
	sc.residents = true
	sc.warm = slices.Grow(sc.warm[:0], d.warmCount)
	sc.coldest = emptyByNode(sc.coldest, len(d.mmus))
	for n := range sc.coldest {
		sc.coldest[n] = slices.Grow(sc.coldest[n], d.localCount[n])
	}
	for vpn, st := range d.state {
		switch st.tier {
		case memsys.TierWarm:
			sc.warm = append(sc.warm, victim{vpn, heatIn(hot, vpn)})
		case memsys.TierLocal:
			sc.coldest[st.node] = append(sc.coldest[st.node], victim{vpn, heatIn(hot, vpn)})
		}
	}
	for _, h := range sc.coldest {
		h.init()
	}
}

// arm is what planPromotions does with a hot page.
type arm uint8

const (
	armNone   arm = iota // already where it belongs, or not hot enough to move
	armRehome            // pinned local on the wrong node
	armLocal             // wants a local frame on its dominant node
	armWarm              // cold or unknown, and hot enough for premium capacity
)

// armOf decides ps's arm from its heat and the daemon's model, neither
// of which planning changes. A page whose arm is armNone leaves the plan
// and the counters as they are, so planPromotions drops it before it
// sorts.
func (d *Daemon) armOf(ps PageStat) (a arm, st pageState, managed bool) {
	dom := ps.Node
	wantLocal := ps.Heat >= d.cfg.LocalHeat && ps.Share >= dominantShare &&
		dom >= 0 && dom < len(d.mmus) && d.mmus[dom] != nil
	if !wantLocal && ps.Heat < d.cfg.PromoteHeat {
		return armNone, st, false
	}
	st, managed = d.state[ps.VPN]
	switch {
	case wantLocal && managed && st.tier == memsys.TierLocal && int(st.node) == dom:
		return armNone, st, managed
	case wantLocal && managed && st.tier == memsys.TierLocal:
		return armRehome, st, managed
	case wantLocal:
		return armLocal, st, managed
	case !managed || st.tier == memsys.TierCold:
		// Cold (or unknown — assumed cold; the move resyncs if not).
		return armWarm, st, managed
	}
	return armNone, st, managed
}

// planPromotions walks the hot pages that can move, hottest first, and
// plans upward moves.
func (d *Daemon) planPromotions(pl *plan, hot []PageStat, veto int) {
	sc := &d.scratch
	planned := sc.planned
	sc.movers = sc.movers[:0]
	for _, ps := range hot {
		if a, _, _ := d.armOf(ps); a != armNone {
			sc.movers = append(sc.movers, ps)
		}
	}
	slices.SortFunc(sc.movers, hotterFirst)

	// projWarm tracks what warm occupancy will be once this plan executes,
	// so admission decisions see the step's own earlier moves.
	projWarm := d.warmCount
	warmBuilt := false // coldestWarm holds this step's warm pages

	for _, ps := range sc.movers {
		if pl.moves >= d.cfg.MaxMovesPerStep {
			return
		}
		if planned[ps.VPN] {
			continue // already moving this step (displaced above)
		}
		a, st, managed := d.armOf(ps)
		dom := ps.Node
		switch a {
		case armRehome:
			// Pinned on the wrong node: pull it down this step, the next
			// step promotes it home (one move per step per page).
			if int(st.node) == veto {
				continue
			}
			pl.demoteWarm[int(st.node)] = append(pl.demoteWarm[int(st.node)], ps.VPN)
			planned[ps.VPN] = true
			pl.moves++
			projWarm++
		case armLocal:
			if d.cfg.LocalBudgetPages > 0 && d.localCount[dom] >= d.cfg.LocalBudgetPages {
				// Full: displace the coldest resident only if this page is
				// clearly hotter (displaceFactor hysteresis).
				if dom == veto {
					continue
				}
				d.collectResidents(hot)
				q := &sc.coldest[dom]
				q.skipPlanned(planned)
				if len(*q) > 0 && (*q)[0].heat*displaceFactor < ps.Heat {
					v := q.pop()
					pl.demoteWarm[dom] = append(pl.demoteWarm[dom], v.vpn)
					planned[v.vpn] = true
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
		case armWarm:
			if d.cfg.WarmBudgetPages > 0 && projWarm >= d.cfg.WarmBudgetPages {
				// Premium is full: swap only when the candidate is clearly
				// hotter than the coldest resident (the same displaceFactor
				// hysteresis local placement uses). A page moves warm<->cold
				// at full-page copy cost, so near-ties must never churn.
				if !warmBuilt {
					// Rack-wide, managed warm pages coldest first.
					warmBuilt = true
					d.collectResidents(hot)
					sc.coldestWarm = append(sc.coldestWarm[:0], sc.warm...)
					sc.coldestWarm.init()
				}
				q := &sc.coldestWarm
				q.skipPlanned(planned)
				if len(*q) == 0 || (*q)[0].heat*displaceFactor >= ps.Heat {
					continue // not clearly hotter than any resident
				}
				v := q.pop()
				pl.demoteCold = append(pl.demoteCold, v.vpn)
				planned[v.vpn] = true
				pl.moves++
				projWarm--
			}
			pl.promoteWarm = append(pl.promoteWarm, ps.VPN)
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
func (d *Daemon) planWarmBudget(pl *plan, hot []PageStat) {
	if d.cfg.WarmBudgetPages <= 0 {
		return
	}
	projected := d.warmCount + len(pl.promoteWarm) - len(pl.demoteCold)
	for _, v := range pl.demoteWarm {
		projected += len(v) // local -> warm also lands in premium
	}
	over := projected - d.cfg.WarmBudgetPages
	if over <= 0 {
		return
	}
	// The candidates are every managed warm page but those planPromotions
	// already sends cold. (Its warm promotions come from the cold tier, so
	// they are not managed warm pages; a warm page it promotes to local
	// stays a candidate.)
	sc := &d.scratch
	d.collectResidents(hot)
	clear(sc.sentCold)
	for _, v := range pl.demoteCold {
		sc.sentCold[v] = true
	}
	sc.cands = slices.Grow(sc.cands[:0], len(sc.warm))
	for _, v := range sc.warm {
		if !sc.sentCold[v.vpn] {
			sc.cands = append(sc.cands, v)
		}
	}
	sc.cands.init()
	for over > 0 && pl.moves < d.cfg.MaxMovesPerStep && len(sc.cands) > 0 {
		pl.demoteCold = append(pl.demoteCold, sc.cands.pop().vpn)
		pl.moves++
		over--
	}
}

// execute runs the plan as batches — each owned group on its node in node
// order, the owner-less moves on the step's executor — deterministic and
// one shootdown IPI per remote MMU per batch, then folds outcomes back
// into the model. With no executor (every node crashed) only the local
// demotions run; the other moves wait, and since nothing ran
// them the model still holds.
func (d *Daemon) execute(pl *plan) {
	sc := &d.scratch
	exec := d.executor()

	// Demotions first: they free the budget the promotions rely on.
	for n, vpns := range pl.demoteWarm {
		if m := d.mmus[n]; len(vpns) > 0 && m != nil {
			slices.Sort(vpns)
			d.land(m, vpns, m.DemoteToGlobalBatch(vpns), memsys.TierWarm, -1, &d.stats.demWarm)
		}
	}
	if exec == nil {
		return
	}
	if len(pl.demoteCold) > 0 {
		// Every warm->cold move is a budget eviction, counted here, where
		// it runs.
		d.stats.displaced.Add(uint64(len(pl.demoteCold)))
		slices.Sort(pl.demoteCold)
		d.land(exec, pl.demoteCold, exec.DemoteToColdBatch(pl.demoteCold), memsys.TierCold, -1, &d.stats.demCold)
	}
	if len(pl.promoteWarm) > 0 {
		slices.Sort(pl.promoteWarm)
		d.land(exec, pl.promoteWarm, exec.PromoteFromColdBatch(pl.promoteWarm), memsys.TierWarm, -1, &d.stats.promWarm)
	}
	sc.vacated = sc.vacated[:0]
	for n, vpns := range pl.promoteLocal {
		if m := d.mmus[n]; len(vpns) > 0 && m != nil {
			slices.Sort(vpns)
			var moved []uint64
			moved, sc.vacated = m.PromoteToLocalBatch(vpns, sc.vacated)
			d.land(m, vpns, moved, memsys.TierLocal, n, &d.stats.promLocal)
		}
	}
	// The frames the promotions vacated go back in one call on the
	// executor. From a page's install in local DRAM until here its old
	// frame is in no page-table entry and no TLB (the batch purged every
	// TLB before it copied), so nothing reads or writes it: the frame
	// only keeps its reference a little longer, and global memory is this
	// step's promotions fuller in the meantime.
	exec.ReleaseFrames(sc.vacated)
}

// land folds one batch's outcome into the model: a page in moved is now
// at tier t (on node, for TierLocal) and counts once in ctr; any other
// page of vpns is resynced through m.
func (d *Daemon) land(m *memsys.MMU, vpns, moved []uint64, t memsys.Tier, node int, ctr *atomic.Uint64) {
	ok := d.scratch.landed
	clear(ok)
	for _, v := range moved {
		ok[v] = true
		d.setState(v, t, node)
	}
	ctr.Add(uint64(len(moved)))
	for _, v := range vpns {
		if !ok[v] {
			d.resync(m, v)
		}
	}
}
