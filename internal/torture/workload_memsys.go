package torture

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"flacos/internal/flacdk/alloc"
	"flacos/internal/memsys"
)

// memsysWorkload exercises the shared address space under concurrent
// dedup merging and TLB shootdowns: each node's writer rewrites its pages
// in identical-content pairs (so the dedup scanner constantly merges
// them), a dedicated client on node 0 loops DedupPass, and readers on
// every node check page headers through their own MMU.
//
// Invariants:
//   - no stale mapping: a reader never observes a page header whose
//     version is below the committed floor or whose identity words name a
//     different page pair — both happen only if an MMU keeps translating
//     through a TLB entry that a remap's shootdown should have killed;
//   - dedup preserves content: the final quiescent sweep (plus one more
//     DedupPass) must reproduce every page's exact committed image.
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

	pub      []atomic.Uint64 // per page, committed version floor
	finalVer []uint64        // per page, writer's final version
	merges   atomic.Uint64
	pp       int // pages per writer (pairs of two)
}

func newMemsysWorkload() *memsysWorkload { return &memsysWorkload{pp: 4} }

func (w *memsysWorkload) Name() string { return "memsys" }

// Tolerates: page frames are cached payload, so corruption and dropped
// write-backs are out of contract.
func (w *memsysWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func (w *memsysWorkload) writerOf(page int) int { return page / w.pp }
func (w *memsysWorkload) pairOf(page int) int   { return (page % w.pp) / 2 }

func memVA(page int) uint64 { return uint64(page) * memsys.PageSize }

// makeMemPage builds the image for one page of (writer, pair) at version
// v. Both pages of a pair carry the identical image, which is what makes
// them dedup candidates.
func makeMemPage(writer, pair int, v uint64) []byte {
	buf := make([]byte, memsys.PageSize)
	binary.LittleEndian.PutUint64(buf, v<<32|uint64(writer)<<16|uint64(pair))
	for k := 8; k < memsys.PageSize; k++ {
		buf[k] = byte(v*29 + uint64(writer)*13 + uint64(pair)*7 + uint64(k)*3)
	}
	return buf
}

func decodeMemHeader(h uint64) (v uint64, writer, pair int) {
	return h >> 32, int(h >> 16 & 0xffff), int(h & 0xffff)
}

func (w *memsysWorkload) Prepare(env *Env) {
	f := env.Fab
	n := env.Cfg.Nodes
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
	w.pub = make([]atomic.Uint64, totalPages)
	w.finalVer = make([]uint64, totalPages)
	// Pre-fault every page at v1 from node 0: installs all PTEs (and the
	// radix interior nodes), so no client ever demand-faults concurrently
	// through a shared node allocator.
	for p := 0; p < totalPages; p++ {
		if err := w.mmus[0].Write(memVA(p), makeMemPage(w.writerOf(p), w.pairOf(p), 1)); err != nil {
			panic(err)
		}
		w.pub[p].Store(1)
	}
}

func (w *memsysWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Cfg.Nodes; i++ {
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
// pages of the pair at the same version, which is idempotent.
func (w *memsysWorkload) writer(env *Env, node int) {
	n := env.Fab.Node(node)
	mmu := w.mmus[node]
	rng := env.Rand(uint64(0x70 + node))
	ci := 0x700 + node
	vers := make([]uint64, w.pp/2)
	for j := range vers {
		vers[j] = 1
	}
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		pair := rng.Intn(w.pp / 2)
		base := node*w.pp + pair*2
		v := vers[pair] + 1
		content := makeMemPage(node, pair, v)
		var err error
		if !RunOp(n, func() { err = mmu.Write(memVA(base), content) }) {
			WaitAlive(n)
			continue
		}
		if err != nil {
			env.Violatef(ci, "page %d: write v%d failed: %v", base, v, err)
		}
		w.pub[base].Store(v)
		if !RunOp(n, func() { err = mmu.Write(memVA(base+1), content) }) {
			WaitAlive(n)
			continue // retries page base at v too: identical image, harmless
		}
		if err != nil {
			env.Violatef(ci, "page %d: write v%d failed: %v", base+1, v, err)
		}
		w.pub[base+1].Store(v)
		vers[pair] = v
		completed++
		env.OpDone()
	}
	for j := range vers {
		w.finalVer[node*w.pp+j*2] = vers[j]
		w.finalVer[node*w.pp+j*2+1] = vers[j]
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
		if !RunOp(n, func() {
			p1 = mmu.PTEOf(memVA(p))
			err = mmu.Read(memVA(p), b8[:])
			p2 = mmu.PTEOf(memVA(p))
		}) {
			WaitAlive(n)
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

func (w *memsysWorkload) checkHeader(env *Env, ci, p int, hdr, v0 uint64) {
	ver, writer, pair := decodeMemHeader(hdr)
	if writer != w.writerOf(p) || pair != w.pairOf(p) {
		env.Violatef(ci, "page %d: stale mapping: header names (writer %d, pair %d) v%d", p, writer, pair, ver)
		return
	}
	if ver < v0 {
		env.Violatef(ci, "page %d: stale version v%d after committed v%d", p, ver, v0)
	}
}

func (w *memsysWorkload) reader(env *Env, node int) {
	rng := env.Rand(uint64(0x80 + node))
	ci := 0x800 + node
	totalPages := len(w.pub)
	for completed := 0; completed < env.Cfg.OpsPerClient; completed++ {
		p := rng.Intn(totalPages)
		v0 := w.pub[p].Load()
		if hdr, ok := w.readHeader(env, node, p); ok {
			w.checkHeader(env, ci, p, hdr, v0)
		}
		env.OpDone()
	}
}

// dedupClient lives on node 0 (never a crash victim, so a pass is never
// killed halfway) and alternates DedupPass with header reads.
func (w *memsysWorkload) dedupClient(env *Env) {
	rng := env.Rand(0x90)
	n := env.Fab.Node(0)
	totalPages := len(w.pub)
	for completed := 0; completed < env.Cfg.OpsPerClient; completed++ {
		if completed%4 == 0 {
			RunOp(n, func() { w.merges.Add(uint64(w.mmus[0].DedupPass())) })
		} else {
			p := rng.Intn(totalPages)
			v0 := w.pub[p].Load()
			if hdr, ok := w.readHeader(env, 0, p); ok {
				w.checkHeader(env, 0x900, p, hdr, v0)
			}
		}
		env.OpDone()
	}
}

// Check sweeps the quiescent space: every page must hold exactly its
// final committed image, then one more DedupPass must merge the (now all
// identical) pairs without disturbing any content.
func (w *memsysWorkload) Check(env *Env) {
	buf := make([]byte, memsys.PageSize)
	sweep := func(tag string) {
		for p := range w.finalVer {
			want := makeMemPage(w.writerOf(p), w.pairOf(p), w.finalVer[p])
			if err := w.mmus[0].Read(memVA(p), buf); err != nil {
				env.Violatef(-1, "%s: page %d read failed: %v", tag, p, err)
				continue
			}
			if !bytes.Equal(buf, want) {
				env.Violatef(-1, "%s: page %d does not match committed v%d (header %#x)",
					tag, p, w.finalVer[p], binary.LittleEndian.Uint64(buf))
			}
		}
	}
	sweep("final")
	w.merges.Add(uint64(w.mmus[0].DedupPass()))
	sweep("post-dedup")
}
