package torture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/fs"
)

// fsWorkload drives the rack file system: per-node writers rewrite whole
// pages of their own file (bumping an embedded version), occasionally
// fsync and create extra files to churn the metadata journal, while
// readers on every node re-read random pages.
//
// Invariants:
//   - durability: a page version whose Write completed before a read began
//     (the committed floor) is never lost — the read may see a newer
//     version, never an older or zero page;
//   - no torn reads: a full-page read decodes to exactly one version's
//     content (page writes install a fresh frame, so readers must always
//     land on a frame-consistent image, even across crash-recovery);
//   - journal durability: every created file resolves through a fresh
//     mount whose metadata replica replays the journal from scratch.
//
// A client whose op was interrupted by its node's crash fences its dead
// mount (freeing the stuck quiescence reservation) and re-mounts — the
// same recovery dance a rebooted FlacOS node performs.
type fsWorkload struct {
	fsys *fs.FS

	names []string // per writer file name
	ids   []uint64 // per writer file id
	pages int      // pages per file

	pub      [][]atomic.Uint64 // [writer][page] committed version floor
	finalVer [][]uint64        // [writer][page] writer's final version

	extraMu sync.Mutex
	extras  map[string]uint64 // published extra files: name -> id
}

func newFSWorkload() *fsWorkload { return &fsWorkload{pages: 4} }

func (w *fsWorkload) Name() string { return "fs" }

// Tolerates: page payloads and the journal ring live in cached memory, so
// silent corruption and dropped write-backs are out of contract; crashes
// and link degradation are the faults the FS is designed to survive.
func (w *fsWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

// makeFilePage builds the deterministic full-page image for (file, page,
// version). Word 0 is the header; every body byte depends on the offset so
// any mix of two versions is detectable.
func makeFilePage(file, page int, ver uint64) []byte {
	buf := make([]byte, fs.PageSize)
	binary.LittleEndian.PutUint64(buf, ver<<24|uint64(file)<<12|uint64(page))
	for k := 8; k < fs.PageSize; k++ {
		buf[k] = byte(uint64(k)*2654435761 + ver*97 + uint64(file)*31 + uint64(page)*17)
	}
	return buf
}

func decodeFileHeader(h uint64) (ver uint64, file, page int) {
	return h >> 24, int(h >> 12 & 0xfff), int(h & 0xfff)
}

func (w *fsWorkload) Prepare(env *Env) {
	n := env.Cfg.Nodes
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
	w.pub = make([][]atomic.Uint64, n)
	w.finalVer = make([][]uint64, n)
	m0 := w.fsys.Mount(env.Fab.Node(0))
	for i := 0; i < n; i++ {
		w.names[i] = fmt.Sprintf("torture-%d", i)
		id, err := m0.Create(w.names[i])
		if err != nil {
			panic(err)
		}
		w.ids[i] = id
		w.pub[i] = make([]atomic.Uint64, w.pages)
		w.finalVer[i] = make([]uint64, w.pages)
		for p := 0; p < w.pages; p++ {
			if _, err := m0.Write(id, uint64(p)*fs.PageSize, makeFilePage(i, p, 1)); err != nil {
				panic(err)
			}
			w.pub[i][p].Store(1)
		}
	}
}

func (w *fsWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Cfg.Nodes; i++ {
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
	vers := make([]uint64, w.pages)
	for p := range vers {
		vers[p] = 1
	}
	attempt := 0
	p := -1 // the page being written; -1 once it is done
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		if p < 0 {
			p = rng.Intn(w.pages)
		}
		v := vers[p] + 1
		buf := makeFilePage(node, p, v)
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
		vers[p] = v
		w.pub[node][p].Store(v)
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
	copy(w.finalVer[node], vers)
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
		v0 := w.pub[target][p].Load()
		var err error
		if !env.RunOp(n, func() { _, err = m.Read(w.ids[target], uint64(p)*fs.PageSize, buf) }) {
			m = w.remount(env, n, m)
			continue
		}
		if err != nil {
			env.Violatef(ci, "file %d page %d: read failed: %v", target, p, err)
		} else {
			w.checkPage(env, ci, buf, target, p, v0)
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

// checkPage verifies one full-page image against the durability and
// no-torn-read invariants, given the committed floor v0 loaded before the
// read began.
func (w *fsWorkload) checkPage(env *Env, ci int, buf []byte, file, page int, v0 uint64) {
	hdr := binary.LittleEndian.Uint64(buf)
	if hdr == 0 {
		if v0 > 0 {
			env.Violatef(ci, "file %d page %d: lost write: zero page after committed v%d", file, page, v0)
		}
		return
	}
	ver, gotFile, gotPage := decodeFileHeader(hdr)
	if gotFile != file || gotPage != page {
		env.Violatef(ci, "file %d page %d: wrong identity (%d,%d) v%d", file, page, gotFile, gotPage, ver)
		return
	}
	if ver < v0 {
		env.Violatef(ci, "file %d page %d: stale read v%d after committed v%d", file, page, ver, v0)
		return
	}
	if !bytes.Equal(buf, makeFilePage(file, page, ver)) {
		env.Violatef(ci, "file %d page %d: torn read at v%d", file, page, ver)
	}
}

// Check attaches a brand-new mount on the last node — its metadata replica
// replays the journal from entry zero, standing in for a rebooted node —
// and verifies names, final page versions, and full page content.
func (w *fsWorkload) Check(env *Env) {
	m := w.fsys.Mount(env.Fab.Node(env.Cfg.Nodes - 1))
	buf := make([]byte, fs.PageSize)
	for i, name := range w.names {
		id, ok := m.Lookup(name)
		if !ok || id != w.ids[i] {
			env.Violatef(-1, "final: lookup %q = (%d,%v), want id %d", name, id, ok, w.ids[i])
			continue
		}
		for p := 0; p < w.pages; p++ {
			want := w.finalVer[i][p]
			if _, err := m.Read(id, uint64(p)*fs.PageSize, buf); err != nil {
				env.Violatef(-1, "final: read file %d page %d: %v", i, p, err)
				continue
			}
			if !bytes.Equal(buf, makeFilePage(i, p, want)) {
				env.Violatef(-1, "final: file %d page %d does not match committed v%d (header %#x)",
					i, p, want, binary.LittleEndian.Uint64(buf))
			}
		}
	}
	w.extraMu.Lock()
	defer w.extraMu.Unlock()
	for name, id := range w.extras {
		got, ok := m.Lookup(name)
		if !ok || got != id {
			env.Violatef(-1, "final: journal lost create %q (got %d,%v want %d)", name, got, ok, id)
		}
	}
}
