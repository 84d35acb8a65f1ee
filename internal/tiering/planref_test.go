package tiering

import (
	"cmp"
	"slices"
	"testing"

	"flacos/internal/memsys"
)

// refPlanner is the daemon's planner as it was before a step sorted only
// the pages it moves: it fills a heat map of every hot page, sorts all of
// them by heat, and fully sorts the managed pages of each victim order.
// TestPlannerMatchesReference holds the daemon's planner to this one,
// plan for plan. Its scratch is its own; planned, the plan and the
// daemon's model and counters are the daemon's.
type refPlanner struct {
	vetoes      int // moves skipped for the hinted node
	byHeat      []PageStat
	heatOf      map[uint64]float64
	warmPlanned map[uint64]bool
	coldest     [][]PageStat
	displace    [][]PageStat
	coldestWarm []PageStat
	cands       []PageStat
}

func newRefPlanner() *refPlanner {
	return &refPlanner{heatOf: make(map[uint64]float64), warmPlanned: make(map[uint64]bool)}
}

// plan is the reference to Daemon.planStep.
func (r *refPlanner) plan(d *Daemon, hot []PageStat, veto int) *plan {
	clear(r.heatOf)
	for _, ps := range hot {
		r.heatOf[ps.VPN] = ps.Heat
	}
	pl := &d.scratch.plan
	pl.reset(len(d.mmus))
	clear(d.scratch.planned)
	r.promotions(d, pl, hot, veto)
	r.warmBudget(d, pl)
	return pl
}

// colderFirst orders pages by heat ascending, then VPN ascending: the
// eviction and displacement order.
func colderFirst(a, b PageStat) int {
	if c := cmp.Compare(a.Heat, b.Heat); c != 0 {
		return c
	}
	return cmp.Compare(a.VPN, b.VPN)
}

// promotions walks the hot pages hottest-first and plans upward moves.
func (r *refPlanner) promotions(d *Daemon, pl *plan, hot []PageStat, veto int) {
	heatOf, planned := r.heatOf, d.scratch.planned
	r.byHeat = append(r.byHeat[:0], hot...)
	byHeat := r.byHeat
	slices.SortFunc(byHeat, hotterFirst)

	var coldest [][]PageStat
	buildColdest := func() {
		r.coldest = emptyByNode(r.coldest, len(d.mmus))
		for vpn, st := range d.state {
			if st.tier == memsys.TierLocal {
				r.coldest[st.node] = append(r.coldest[st.node], PageStat{VPN: vpn, Heat: heatOf[vpn]})
			}
		}
		r.displace = emptyByNode(r.displace, len(d.mmus))
		for n, s := range r.coldest {
			slices.SortFunc(s, colderFirst)
			r.displace[n] = s
		}
		coldest = r.displace
	}

	var coldestWarm []PageStat
	warmBuilt := false
	buildColdestWarm := func() {
		warmBuilt = true
		r.coldestWarm = r.coldestWarm[:0]
		for vpn, st := range d.state {
			if st.tier == memsys.TierWarm {
				r.coldestWarm = append(r.coldestWarm, PageStat{VPN: vpn, Heat: heatOf[vpn]})
			}
		}
		slices.SortFunc(r.coldestWarm, colderFirst)
		coldestWarm = r.coldestWarm
	}

	projWarm := d.warmCount

	for _, ps := range byHeat {
		if pl.moves >= d.cfg.MaxMovesPerStep {
			return
		}
		if planned[ps.VPN] {
			continue
		}
		st, managed := d.state[ps.VPN]
		dom := ps.Node
		wantLocal := ps.Heat >= d.cfg.LocalHeat && ps.Share >= dominantShare &&
			dom >= 0 && dom < len(d.mmus) && d.mmus[dom] != nil
		switch {
		case wantLocal && managed && st.tier == memsys.TierLocal && int(st.node) == dom:
		case wantLocal && managed && st.tier == memsys.TierLocal:
			if int(st.node) == veto {
				r.vetoes++
				continue
			}
			pl.demoteWarm[int(st.node)] = append(pl.demoteWarm[int(st.node)], ps.VPN)
			planned[ps.VPN] = true
			pl.moves++
			projWarm++
		case wantLocal:
			if d.cfg.LocalBudgetPages > 0 && d.localCount[dom] >= d.cfg.LocalBudgetPages {
				if dom == veto {
					r.vetoes++
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
				if len(q) > 0 && q[0].Heat*displaceFactor < ps.Heat {
					v := q[0]
					coldest[dom] = q[1:]
					pl.demoteWarm[dom] = append(pl.demoteWarm[dom], v.VPN)
					planned[v.VPN] = true
					pl.moves++
					projWarm++
					d.stats.displaced.Add(1)
				}
				continue
			}
			pl.promoteLocal[dom] = append(pl.promoteLocal[dom], ps.VPN)
			planned[ps.VPN] = true
			pl.moves++
			if managed && st.tier == memsys.TierWarm {
				projWarm--
			}
		case ps.Heat >= d.cfg.PromoteHeat && (!managed || st.tier == memsys.TierCold):
			if d.cfg.WarmBudgetPages > 0 && projWarm >= d.cfg.WarmBudgetPages {
				if !warmBuilt {
					buildColdestWarm()
				}
				q := coldestWarm
				for len(q) > 0 && (planned[q[0].VPN] || d.state[q[0].VPN].tier != memsys.TierWarm) {
					q = q[1:]
				}
				coldestWarm = q
				if len(q) == 0 || q[0].Heat*displaceFactor >= ps.Heat {
					continue
				}
				v := q[0]
				coldestWarm = q[1:]
				pl.demoteCold = append(pl.demoteCold, v.VPN)
				planned[v.VPN] = true
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

// warmBudget evicts the coldest managed warm pages when the step's plan
// would still overflow premium capacity.
func (r *refPlanner) warmBudget(d *Daemon, pl *plan) {
	if d.cfg.WarmBudgetPages <= 0 {
		return
	}
	projected := d.warmCount + len(pl.promoteWarm) - len(pl.demoteCold)
	for _, v := range pl.demoteWarm {
		projected += len(v)
	}
	over := projected - d.cfg.WarmBudgetPages
	if over <= 0 {
		return
	}
	planned := r.warmPlanned
	clear(planned)
	for _, v := range pl.promoteWarm {
		planned[v] = true
	}
	for _, v := range pl.demoteCold {
		planned[v] = true
	}
	cands := r.cands[:0]
	for vpn, st := range d.state {
		if st.tier == memsys.TierWarm && !planned[vpn] {
			cands = append(cands, PageStat{VPN: vpn, Heat: r.heatOf[vpn]})
		}
	}
	r.cands = cands
	slices.SortFunc(cands, colderFirst)
	for _, c := range cands {
		if over <= 0 || pl.moves >= d.cfg.MaxMovesPerStep {
			return
		}
		pl.demoteCold = append(pl.demoteCold, c.VPN)
		pl.moves++
		over--
	}
}

// stepWith runs one step of d with planner deciding its moves, and
// returns a copy of the plan taken before it executes.
func stepWith(d *Daemon, planner func(hot []PageStat, veto int) *plan) plan {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	d.stats.steps.Add(1)
	hot, veto := d.foldEpoch()
	pl := planner(hot, veto)
	cp := plan{moves: pl.moves, promoteWarm: slices.Clone(pl.promoteWarm), demoteCold: slices.Clone(pl.demoteCold)}
	for _, l := range []struct {
		dst *[][]uint64
		src [][]uint64
	}{
		{&cp.promoteLocal, pl.promoteLocal}, {&cp.demoteWarm, pl.demoteWarm},
	} {
		for _, vs := range l.src {
			*l.dst = append(*l.dst, slices.Clone(vs))
		}
	}
	d.execute(pl)
	return cp
}

func samePlan(a, b plan) bool {
	same := func(x, y [][]uint64) bool {
		return slices.EqualFunc(x, y, func(p, q []uint64) bool { return slices.Equal(p, q) })
	}
	return a.moves == b.moves && same(a.promoteLocal, b.promoteLocal) && slices.Equal(a.promoteWarm, b.promoteWarm) &&
		same(a.demoteWarm, b.demoteWarm) && slices.Equal(a.demoteCold, b.demoteCold)
}

// TestPlannerMatchesReference drives the daemon's planner and the
// reference planner, each on its own identical rack, with the same seeded
// sample stream, and requires the same plan, in the same order, and the
// same counters at every step. The stream keeps the local and the warm
// tier full, caps the moves of a step, vetoes one node and then another,
// and reports demand migrations the model has to take on trust.
func TestPlannerMatchesReference(t *testing.T) {
	const (
		nodes = 3
		pages = 256
		steps = 40
	)
	cfg := Config{Decay: 0.75, PromoteHeat: 3, LocalHeat: 8, LocalBudgetPages: 6, WarmBudgetPages: 80, MaxMovesPerStep: 24}
	for _, seed := range []uint64{1, 2, 3} {
		type side struct {
			d     *Daemon
			hints *fakeHints
		}
		build := func() side {
			e := newTierEnv(t, nodes)
			e.mapPages(t, pages)
			var cold []uint64
			for i := 96; i < pages; i++ {
				cold = append(cold, basePage+uint64(i))
			}
			if got := e.mmus[0].DemoteToColdBatch(cold); len(got) != len(cold) {
				t.Fatalf("set-up demoted %d of %d pages", len(got), len(cold))
			}
			h := &fakeHints{}
			d := New(e.s, e.mmus, cfg, h)
			for i := 0; i < pages; i++ {
				tier := memsys.TierCold
				if i < 96 {
					tier = memsys.TierWarm
				}
				d.Prime(basePage+uint64(i), tier, -1)
			}
			return side{d, h}
		}
		a, b := build(), build()
		ref := newRefPlanner()
		x := seed
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 16
		}
		for step := 0; step < steps; step++ {
			// A skewed stream: the square of a uniform draw favours low pages,
			// and each page has a home node that takes most of its accesses.
			for i := 0; i < 1200; i++ {
				u := next() % pages
				page := u * u / pages
				node := int(page % nodes)
				if next()%8 == 0 {
					node = int(next() % nodes)
				}
				a.d.Sample(node, basePage+page, false)
				b.d.Sample(node, basePage+page, false)
			}
			if step%7 == 3 {
				vpn := basePage + next()%pages
				a.d.Migrated(vpn, 0)
				b.d.Migrated(vpn, 0)
			}
			vetoed := step >= 6 && step < 10 || step >= 14 && step < 16 || step >= 24 && step < 30
			veto := 1
			if step >= 14 && step < 16 {
				veto = 2
			}
			for _, s := range []side{a, b} {
				s.hints.node, s.hints.ok = veto, vetoed
			}
			pa := stepWith(a.d, a.d.planStep)
			pb := stepWith(b.d, func(hot []PageStat, veto int) *plan { return ref.plan(b.d, hot, veto) })
			if !samePlan(pa, pb) {
				t.Fatalf("seed %d step %d: plans differ\nplanner:   %+v\nreference: %+v", seed, step, pa, pb)
			}
			if sa, sb := a.d.Stats(), b.d.Stats(); sa != sb {
				t.Fatalf("seed %d step %d: stats differ\nplanner:   %+v\nreference: %+v", seed, step, sa, sb)
			}
		}
		st := a.d.Stats()
		if st.Displaced == 0 || ref.vetoes == 0 || st.PromotedLocal == 0 || st.PromotedWarm == 0 {
			t.Fatalf("seed %d: the stream left a path unexercised: %+v, %d vetoes", seed, st, ref.vetoes)
		}
	}
}
