package torture

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/fs"
)

// fsWorkload drives the rack file system: per-node writers rewrite whole
// pages of their own file (bumping an embedded version), occasionally
// fsync and create extra files to churn the metadata journal, while
// readers on every node re-read random pages.
//
// Each page is a register (register.go): a full-page read must pass the
// register checker against the version committed before it began — never
// lost, never older, never torn (page writes install a fresh frame, so
// readers must always land on a frame-consistent image, even across
// crash-recovery). The fs's own invariant is journal durability: every
// created file resolves through a fresh mount whose metadata replica
// replays the journal from scratch.
//
// A client whose op was interrupted by its node's crash fences its dead
// mount (freeing the stuck quiescence reservation) and re-mounts — the
// same recovery dance a rebooted FlacOS node performs. A writer cut
// mid-write rewrites the same image, which is idempotent.
type fsWorkload struct {
	fsys *fs.FS

	names []string   // per writer file name
	ids   []uint64   // per writer file id
	pages int        // pages per file
	regs  *Registers // register file*pages+page

	extraMu sync.Mutex
	extras  map[string]uint64 // published extra files: name -> id
}

func newFSWorkload() *fsWorkload { return &fsWorkload{pages: 4} }

func (w *fsWorkload) Name() string { return "fs" }

// Tolerates: page payloads and the journal ring live in cached memory, so
// silent corruption and dropped write-backs are out of contract; crashes
// and link degradation are the faults the FS is designed to survive.
func (w *fsWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

// page returns the image of register r at version ver.
func (w *fsWorkload) page(r int, ver uint64) []byte { return Payload(w.regs.ID(r), ver, fs.PageSize) }

func (w *fsWorkload) Prepare(env *Env) {
	n := env.Fab.NumNodes()
	writes := n * env.Cfg.OpsPerClient
	w.fsys = fs.New(env.Fab, fs.NewMemDev(0, 0), fs.Config{
		// Headroom for the worst case: reclamation stalls while a crashed
		// mount pins the epoch, so every write may take a fresh frame.
		CacheFrames: uint64(2*writes + n*w.pages + 256),
		MetaLogCap:  4096,
		MaxMounts:   2*n + 2*env.Cfg.Events + 8,
	})
	w.fsys.SetTrace(env.Trace)
	w.extras = make(map[string]uint64)
	w.names = make([]string, n)
	w.ids = make([]uint64, n)
	w.regs = NewRegisters(n*w.pages, 1, func(r int) string {
		return fmt.Sprintf("file %d page %d", r/w.pages, r%w.pages)
	})
	m0 := w.fsys.Mount(env.Fab.Node(0))
	for i := 0; i < n; i++ {
		w.names[i] = fmt.Sprintf("torture-%d", i)
		id, err := m0.Create(w.names[i])
		if err != nil {
			panic(err)
		}
		w.ids[i] = id
		for p := 0; p < w.pages; p++ {
			r := i*w.pages + p
			if _, err := m0.Write(id, uint64(p)*fs.PageSize, w.page(r, 1)); err != nil {
				panic(err)
			}
			w.regs.Commit(r, 1)
		}
	}
}

func (w *fsWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Fab.NumNodes(); i++ {
		node := i
		out = append(out,
			func() { w.writer(env, node) },
			func() { w.reader(env, node) },
		)
	}
	return out
}

// mount attaches a fresh mount on n, riding out crashes (a half-made
// mount just burns a participant slot, which MaxMounts budgets for).
func (w *fsWorkload) mount(env *Env, n *fabric.Node) *fs.Mount {
	for {
		var m *fs.Mount
		if env.RunOp(n, func() { m = w.fsys.Mount(n) }) {
			return m
		}
		env.WaitAlive(n)
	}
}

// remount recovers a client whose mount died with its node: wait for the
// restart, fence the dead participant, attach fresh.
func (w *fsWorkload) remount(env *Env, n *fabric.Node, dead *fs.Mount) *fs.Mount {
	for {
		env.WaitAlive(n)
		if env.RunOp(n, func() { w.fsys.FenceMount(n, dead) }) {
			return w.mount(env, n)
		}
	}
}

func (w *fsWorkload) writer(env *Env, node int) {
	n := env.Fab.Node(node)
	rng := env.Rand(uint64(0x50 + node))
	ci := 0x500 + node
	m := w.mount(env, n)
	id := w.ids[node]
	attempt := 0
	p := -1 // the page being written; -1 once it is done
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		if p < 0 {
			p = rng.Intn(w.pages)
		}
		r := node*w.pages + p
		v := w.regs.Floor(r) + 1
		buf := w.page(r, v)
		var err error
		if !env.RunOp(n, func() { _, err = m.Write(id, uint64(p)*fs.PageSize, buf) }) {
			// Crash mid-write: the version may or may not have landed;
			// rewriting the identical image is idempotent either way.
			m = w.remount(env, n, m)
			continue
		}
		if err != nil {
			env.Violatef(ci, "file %d page %d: write v%d failed: %v", node, p, v, err)
		}
		w.regs.Commit(r, v)
		p = -1
		completed++
		env.OpDone()

		switch {
		case completed%40 == 20:
			// Metadata churn: publish an extra file only once Create
			// definitely completed (a crashed attempt may leave an orphan,
			// which is fine — it just must never corrupt the journal).
			attempt++
			name := fmt.Sprintf("extra-%d-%d", node, attempt)
			var eid uint64
			if env.RunOp(n, func() { eid, err = m.Create(name) }) {
				if err != nil {
					env.Violatef(ci, "create %q failed: %v", name, err)
				} else {
					w.extraMu.Lock()
					w.extras[name] = eid
					w.extraMu.Unlock()
				}
			} else {
				m = w.remount(env, n, m)
			}
		case completed%16 == 8:
			if !env.RunOp(n, func() {
				if rng.Intn(2) == 0 {
					err = m.Fsync(id)
				} else {
					m.WriteBackOnce()
				}
			}) {
				m = w.remount(env, n, m)
			} else if err != nil {
				env.Violatef(ci, "fsync file %d failed: %v", node, err)
			}
		}
	}
}

func (w *fsWorkload) reader(env *Env, node int) {
	n := env.Fab.Node(node)
	rng := env.Rand(uint64(0x60 + node))
	ci := 0x600 + node
	m := w.mount(env, n)
	buf := make([]byte, fs.PageSize)
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		target := rng.Intn(len(w.ids))
		p := rng.Intn(w.pages)
		r := target*w.pages + p
		f0 := w.regs.Floor(r)
		var err error
		if !env.RunOp(n, func() { _, err = m.Read(w.ids[target], uint64(p)*fs.PageSize, buf) }) {
			m = w.remount(env, n, m)
			continue
		}
		if err != nil {
			env.Violatef(ci, "file %d page %d: read failed: %v", target, p, err)
		} else {
			w.regs.check(env, ci, r, Bounds{Floor: f0}, Decode(buf))
		}
		completed++
		env.OpDone()

		if completed%16 == 4 {
			var gotID uint64
			var ok bool
			if !env.RunOp(n, func() { gotID, ok = m.Lookup(w.names[target]) }) {
				m = w.remount(env, n, m)
			} else if !ok || gotID != w.ids[target] {
				env.Violatef(ci, "lookup %q = (%d,%v), want id %d", w.names[target], gotID, ok, w.ids[target])
			}
		}
	}
}

// Check attaches a brand-new mount on the last node — its metadata replica
// replays the journal from entry zero, standing in for a rebooted node —
// and verifies names, final page versions, and full page content.
func (w *fsWorkload) Check(env *Env) {
	m := w.fsys.Mount(env.Fab.Node(env.Fab.NumNodes() - 1))
	buf := make([]byte, fs.PageSize)
	for i, name := range w.names {
		if id, ok := m.Lookup(name); !ok || id != w.ids[i] {
			env.Violatef(-1, "final: lookup %q = (%d,%v), want id %d", name, id, ok, w.ids[i])
		}
	}
	w.regs.checkFinal(env, "final", func(r int) (Read, error) {
		_, err := m.Read(w.ids[r/w.pages], uint64(r%w.pages)*fs.PageSize, buf)
		return Decode(buf), err
	})
	w.extraMu.Lock()
	defer w.extraMu.Unlock()
	for name, id := range w.extras {
		got, ok := m.Lookup(name)
		if !ok || got != id {
			env.Violatef(-1, "final: journal lost create %q (got %d,%v want %d)", name, got, ok, id)
		}
	}
}
