package torture

import (
	"encoding/binary"
	"fmt"

	"flacos/internal/flacdk/alloc"
	"flacos/internal/memsys"
)

// memsysWorkload exercises the shared address space under concurrent
// dedup merging and TLB shootdowns: each node's writer rewrites its pages
// in identical-content pairs (so the dedup scanner constantly merges
// them), a dedicated client on node 0 loops DedupPass, and readers on
// every node check page headers through their own MMU.
//
// Each page is a register (register.go) whose identity its pair shares,
// so both pages carry one image:
//   - no stale mapping: a page header read must pass the register checker
//     against the floor committed before it — a version below the floor or
//     another pair's identity happens only if an MMU keeps translating
//     through a TLB entry that a remap's shootdown should have killed;
//   - dedup preserves content: the final quiescent sweep (plus one more
//     DedupPass) must find every page's exact final image.
//
// Reader protocol: page writes are in-place after the COW break, so a
// header read is sandwiched between two page-table lookups and retried
// until the PTE is stable — an unstable read may have landed on a frame
// freed mid-flight, which is indistinguishable from a real violation.
// With shootdowns intact, a stable PTE guarantees the read went through
// the live frame; with shootdowns broken (-torture-break shootdown), the
// stale TLB path bypasses the page table entirely and the checker fires.
type memsysWorkload struct {
	frames *memsys.GlobalFrames
	space  *memsys.Space
	mmus   []*memsys.MMU

	regs *Registers // register p is page p; pages 2i and 2i+1 are pair i
	pp   int        // pages per writer (pairs of two)
}

func newMemsysWorkload() *memsysWorkload { return &memsysWorkload{pp: 4} }

func (w *memsysWorkload) Name() string { return "memsys" }

// Tolerates: page frames are cached payload, so corruption and dropped
// write-backs are out of contract.
func (w *memsysWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func memVA(page int) uint64 { return uint64(page) * memsys.PageSize }

// page returns the image of page p at version v: its pair's payload.
func (w *memsysWorkload) page(p int, v uint64) []byte {
	return Payload(w.regs.ID(p), v, memsys.PageSize)
}

func (w *memsysWorkload) Prepare(env *Env) {
	f := env.Fab
	n := env.Fab.NumNodes()
	totalPages := n * w.pp
	arena := alloc.NewArena(f, 8<<20)
	w.frames = memsys.NewGlobalFrames(f, uint64(totalPages*4+128))
	w.space = memsys.NewSpace(f, 1, w.frames, arena.NodeAllocator(f.Node(0), 0), 256)
	w.space.SetTrace(env.Trace)
	w.mmus = make([]*memsys.MMU, n)
	for i := 0; i < n; i++ {
		w.mmus[i] = w.space.Attach(f.Node(i), arena.NodeAllocator(f.Node(i), 0), nil, 256)
	}
	if err := w.mmus[0].MMap(0, uint64(totalPages), memsys.ProtRead|memsys.ProtWrite, memsys.BackGlobal); err != nil {
		panic(err)
	}
	w.regs = NewRegisters(totalPages, 2, func(p int) string { return fmt.Sprintf("page %d", p) })
	// Pre-fault every page at v1 from node 0: installs all PTEs (and the
	// radix interior nodes), so no client ever demand-faults concurrently
	// through a shared node allocator.
	for p := 0; p < totalPages; p++ {
		if err := w.mmus[0].Write(memVA(p), w.page(p, 1)); err != nil {
			panic(err)
		}
		w.regs.Commit(p, 1)
	}
}

func (w *memsysWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Fab.NumNodes(); i++ {
		node := i
		out = append(out,
			func() { w.writer(env, node) },
			func() { w.reader(env, node) },
		)
	}
	out = append(out, func() { w.dedupClient(env) })
	return out
}

// writer rewrites one of its pairs at the next version: both pages get
// the identical new image. A crash mid-write leaves the pair split across
// versions (and possibly a torn frame at home); the retry rewrites both
// pages of the same pair at the same version, which is idempotent — and
// necessary, since a write can reach home before the crash kills its op.
func (w *memsysWorkload) writer(env *Env, node int) {
	n := env.Fab.Node(node)
	mmu := w.mmus[node]
	rng := env.Rand(uint64(0x70 + node))
	ci := 0x700 + node
	pair := -1 // the pair being written; -1 once it is done
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		if pair < 0 {
			pair = rng.Intn(w.pp / 2)
		}
		base := node*w.pp + pair*2
		v := w.regs.Floor(base+1) + 1
		content := w.page(base, v)
		var err error
		if !env.RunOp(n, func() { err = mmu.Write(memVA(base), content) }) {
			env.WaitAlive(n)
			continue
		}
		if err != nil {
			env.Violatef(ci, "page %d: write v%d failed: %v", base, v, err)
		}
		w.regs.Commit(base, v)
		if !env.RunOp(n, func() { err = mmu.Write(memVA(base+1), content) }) {
			env.WaitAlive(n)
			continue // retries page base at v too: identical image, harmless
		}
		if err != nil {
			env.Violatef(ci, "page %d: write v%d failed: %v", base+1, v, err)
		}
		w.regs.Commit(base+1, v)
		pair = -1
		completed++
		env.OpDone()
	}
}

// readHeader performs one stable header read of page p through mmu: the
// 8-byte read is sandwiched between page-table lookups and retried while
// the PTE moves underneath it. Returns ok=false if the node kept crashing
// or the page churned too fast to observe (both are non-verdicts).
func (w *memsysWorkload) readHeader(env *Env, node, p int) (hdr uint64, ok bool) {
	n := env.Fab.Node(node)
	mmu := w.mmus[node]
	var b8 [8]byte
	for try := 0; try < 64; try++ {
		var p1, p2 memsys.PTE
		var err error
		if !env.RunOp(n, func() {
			p1 = mmu.PTEOf(memVA(p))
			err = mmu.Read(memVA(p), b8[:])
			p2 = mmu.PTEOf(memVA(p))
		}) {
			env.WaitAlive(n)
			continue
		}
		if err != nil {
			env.Violatef(0x800+node, "page %d: read failed: %v", p, err)
			return 0, false
		}
		if p1 == p2 {
			return binary.LittleEndian.Uint64(b8[:]), true
		}
	}
	return 0, false
}

func (w *memsysWorkload) reader(env *Env, node int) {
	rng := env.Rand(uint64(0x80 + node))
	ci := 0x800 + node
	for completed := 0; completed < env.Cfg.OpsPerClient; completed++ {
		p := rng.Intn(w.regs.Len())
		f0 := w.regs.Floor(p)
		if hdr, ok := w.readHeader(env, node, p); ok {
			w.regs.check(env, ci, p, Bounds{Floor: f0}, DecodeWord(hdr))
		}
		env.OpDone()
	}
}

// dedupClient lives on node 0 (never a crash victim, so a pass is never
// killed halfway) and alternates DedupPass with header reads.
func (w *memsysWorkload) dedupClient(env *Env) {
	rng := env.Rand(0x90)
	n := env.Fab.Node(0)
	for completed := 0; completed < env.Cfg.OpsPerClient; completed++ {
		if completed%4 == 0 {
			env.RunOp(n, func() { w.mmus[0].DedupPass() })
		} else {
			p := rng.Intn(w.regs.Len())
			f0 := w.regs.Floor(p)
			if hdr, ok := w.readHeader(env, 0, p); ok {
				w.regs.check(env, 0x900, p, Bounds{Floor: f0}, DecodeWord(hdr))
			}
		}
		env.OpDone()
	}
}

// Check sweeps the quiescent space: every page must hold exactly its
// final committed image, then one more DedupPass must merge the (now all
// identical) pairs without disturbing any content. Last comes a scripted
// remap that does not depend on how the clients interleaved: every pair is
// rewritten onto frames of its own, every MMU's TLB is warmed with those
// frames, node 0 merges the pairs (freeing one frame of each) and the
// freed frames are reallocated, which zero-fills them. Every MMU must then
// still read the committed images; one that kept a TLB entry the merge's
// shootdown should have killed reads a zeroed frame.
func (w *memsysWorkload) Check(env *Env) {
	buf := make([]byte, memsys.PageSize)
	sweep := func(tag string, mmus []*memsys.MMU) {
		for i, mmu := range mmus {
			w.regs.checkFinal(env, fmt.Sprintf("%s on node %d", tag, i), func(p int) (Read, error) {
				err := mmu.Read(memVA(p), buf)
				return Decode(buf), err
			})
		}
	}
	sweep("final", w.mmus[:1])
	w.mmus[0].DedupPass()
	sweep("post-dedup", w.mmus[:1])

	for p := 0; p < w.regs.Len(); p++ {
		v := w.regs.Floor(p) + 1
		if err := w.mmus[p/w.pp].Write(memVA(p), w.page(p, v)); err != nil {
			env.Violatef(-1, "remap: page %d rewrite failed: %v", p, err)
		}
		w.regs.Commit(p, v)
	}
	sweep("remap warm-up", w.mmus)
	n0 := env.Fab.Node(0)
	merged := w.mmus[0].DedupPass()
	if merged == 0 {
		env.Violatef(-1, "remap: DedupPass merged no pair; nothing was remapped")
	}
	reused := make([]uint64, merged)
	for i := range reused {
		reused[i] = w.frames.Alloc(n0)
	}
	sweep("remap", w.mmus)
	for _, phys := range reused {
		w.frames.Unref(n0, phys)
	}
}
