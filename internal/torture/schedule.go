package torture

import (
	"fmt"
	"math/rand"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/trace"
)

// EventKind is one fault-schedule action.
type EventKind int

// Event kinds. On/off kinds always come in pairs inside one window.
const (
	EvCrash EventKind = iota
	EvRestart
	EvCorruptOn
	EvCorruptOff
	EvDropOn
	EvDropOff
	EvDegradeOn
	EvDegradeOff
)

func (k EventKind) String() string {
	switch k {
	case EvCrash:
		return "crash"
	case EvRestart:
		return "restart"
	case EvCorruptOn:
		return "corrupt-on"
	case EvCorruptOff:
		return "corrupt-off"
	case EvDropOn:
		return "dropwb-on"
	case EvDropOff:
		return "dropwb-off"
	case EvDegradeOn:
		return "degrade-on"
	case EvDegradeOff:
		return "degrade-off"
	}
	return fmt.Sprintf("ev(%d)", int(k))
}

// Event is one scheduled fault action, fired when the global op counter
// crosses AtOp.
type Event struct {
	AtOp uint64
	Kind EventKind
	Node int    // victim (crash/restart/degrade); unused for rates
	Arg  uint64 // rate in ppm, or extra hops
	// FiredVNS is the rack virtual time (max node clock) at which apply
	// fired the event — 0 until then. It lines the event log up with the
	// flight recorder's virtual-timestamped trace.
	FiredVNS uint64
}

func (ev Event) String() string {
	vt := ""
	if ev.FiredVNS != 0 {
		vt = fmt.Sprintf(" vt=%-9s", trace.VNS(ev.FiredVNS))
	}
	switch ev.Kind {
	case EvCrash, EvRestart:
		return fmt.Sprintf("@%-6d%s %s node=%d", ev.AtOp, vt, ev.Kind, ev.Node)
	case EvDegradeOn, EvDegradeOff:
		return fmt.Sprintf("@%-6d%s %s node=%d hops=+%d", ev.AtOp, vt, ev.Kind, ev.Node, ev.Arg)
	default:
		return fmt.Sprintf("@%-6d%s %s ppm=%d", ev.AtOp, vt, ev.Kind, ev.Arg)
	}
}

// buildSchedule derives the whole fault schedule from the seed: cfg.Events
// windows spread over [10%, 90%] of the expected op count, each holding
// one paired action (crash→restart, rate on→off, degrade on→off) from the
// enabled classes. Windows never overlap, so at most one node is down and
// at most one window of each action is active at a time; node 0 is never
// a victim, so every workload keeps a stable home for submitters and
// final checks.
func buildSchedule(cfg Config, mask FaultClass, totalOps uint64) []Event {
	if mask == 0 || cfg.Events <= 0 || totalOps == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed*0x5deece66d + 0xb))
	var kinds []EventKind
	if mask&FaultCrash != 0 {
		kinds = append(kinds, EvCrash)
	}
	if mask&FaultCorrupt != 0 {
		kinds = append(kinds, EvCorruptOn)
	}
	if mask&FaultDropWB != 0 {
		kinds = append(kinds, EvDropOn)
	}
	if mask&FaultDegrade != 0 {
		kinds = append(kinds, EvDegradeOn)
	}
	if len(kinds) == 0 {
		return nil
	}
	lo := totalOps / 10
	hi := totalOps * 9 / 10
	span := (hi - lo) / uint64(cfg.Events)
	if span < 4 {
		span = 4
	}
	var out []Event
	victim := 0
	for i := 0; i < cfg.Events; i++ {
		wStart := lo + uint64(i)*span
		a := wStart + uint64(rng.Int63n(int64(span/4+1)))
		b := wStart + span/2 + uint64(rng.Int63n(int64(span/4+1)))
		kind := kinds[rng.Intn(len(kinds))]
		switch kind {
		case EvCrash:
			victim = 1 + (victim+rng.Intn(nodes-1))%(nodes-1)
			out = append(out,
				Event{AtOp: a, Kind: EvCrash, Node: victim},
				Event{AtOp: b, Kind: EvRestart, Node: victim})
		case EvCorruptOn:
			ppm := corruptPPM / uint64(1<<rng.Intn(3))
			out = append(out,
				Event{AtOp: a, Kind: EvCorruptOn, Arg: ppm},
				Event{AtOp: b, Kind: EvCorruptOff})
		case EvDropOn:
			ppm := dropPPM / uint64(1<<rng.Intn(3))
			out = append(out,
				Event{AtOp: a, Kind: EvDropOn, Arg: ppm},
				Event{AtOp: b, Kind: EvDropOff})
		case EvDegradeOn:
			victim = 1 + (victim+rng.Intn(nodes-1))%(nodes-1)
			hops := uint64(1 + rng.Intn(degradeHops))
			out = append(out,
				Event{AtOp: a, Kind: EvDegradeOn, Node: victim, Arg: hops},
				Event{AtOp: b, Kind: EvDegradeOff, Node: victim})
		}
	}
	return out
}

// stallTimeout fires the next scheduled event when the op counter makes
// no progress — clients may all be waiting on a crashed node whose
// restart is the very event being waited for.
const stallTimeout = 25 * time.Millisecond

// watchdogTimeout is how long a sweep may go without a completed client
// op before the watchdog stops it as stuck (halt). It is a var only so
// that the watchdog's own test need not wait this long.
var watchdogTimeout = 3 * time.Second

// drive applies the schedule as the op counter crosses event thresholds,
// then drains whatever remains once every client finished, so each run
// applies exactly len(schedule) events regardless of interleaving. It
// reports stuck, with events perhaps left unapplied, when no client
// completed an op for watchdogTimeout.
func drive(env *Env, w Workload, schedule []Event, done <-chan struct{}) (stuck bool) {
	idx := 0
	lastOps, lastOp := env.Ops(), time.Now()
	lastProgress := lastOp
	for {
		select {
		case <-done:
			for ; idx < len(schedule); idx++ {
				apply(env, w, &schedule[idx])
			}
			return false
		default:
		}
		cur, now := env.Ops(), time.Now()
		if cur != lastOps {
			lastOps, lastOp, lastProgress = cur, now, now
		}
		switch {
		case now.Sub(lastOp) > watchdogTimeout:
			return true
		case idx < len(schedule) && (cur >= schedule[idx].AtOp || now.Sub(lastProgress) > stallTimeout):
			apply(env, w, &schedule[idx])
			idx++
			lastProgress = time.Now()
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// apply fires one event against the rack, stamping its rack-virtual fire
// time and mirroring it into the flight recorder (via node 0, which never
// crashes) so post-mortem timelines show faults amid subsystem events.
func apply(env *Env, w Workload, ev *Event) {
	f := env.Fab
	ev.FiredVNS = rackVNS(f)
	env.Trace.Writer(0).Emit(trace.SubTorture, trace.KFault, 0, uint64(ev.Kind), uint64(ev.Node))
	var n *fabric.Node
	if ev.Node >= 0 && ev.Node < f.NumNodes() {
		n = f.Node(ev.Node)
	}
	switch ev.Kind {
	case EvCrash:
		if n != nil && !n.Crashed() {
			n.Crash()
		}
	case EvRestart:
		if n != nil && n.Crashed() {
			env.restart(ev.Node)
			if h, ok := w.(RestartHandler); ok {
				h.HandleRestart(env, ev.Node)
			}
		}
	case EvCorruptOn:
		f.Faults().SetCorruptionRate(ev.Arg)
	case EvCorruptOff:
		f.Faults().SetCorruptionRate(0)
	case EvDropOn:
		f.Faults().SetDropWriteBackRate(ev.Arg)
	case EvDropOff:
		f.Faults().SetDropWriteBackRate(0)
	case EvDegradeOn:
		if n != nil {
			n.SetLinkDegradation(int(ev.Arg))
		}
	case EvDegradeOff:
		if n != nil {
			n.SetLinkDegradation(0)
		}
	}
}

// rackVNS returns the rack's virtual time: the furthest-ahead node clock
// (safe to read even from crashed nodes).
func rackVNS(f *fabric.Fabric) uint64 {
	var max uint64
	for i := 0; i < f.NumNodes(); i++ {
		if v := f.Node(i).VirtualNS(); v > max {
			max = v
		}
	}
	return max
}
