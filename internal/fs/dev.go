// Package fs is the FlacOS memory file system (paper §3.4).
//
// Its core split follows the paper's placement analysis:
//
//   - The PAGE CACHE is shared, in global memory: one copy of each cached
//     file page serves every node in the rack, eliminating the per-node
//     duplicate copies (container images, shared datasets) that dominate
//     page-cache footprints in production clusters. Cache misses install
//     pages with a race-free PutIfAbsent protocol; updates are
//     multi-version (writers publish a new immutable page version and the
//     old one is reclaimed after a quiescence grace period), and dirty
//     pages reach the device in write-back passes off the write path
//     (WriteBackOnce), run whenever the caller schedules one.
//   - METADATA (the name space and inode attributes) is node-local: each
//     mount holds a replica, bulk-synchronized through a FlacDK
//     replication log. The log doubles as the journal — §3.4's plan of
//     integrating journaling with the synchronization mechanism — so
//     metadata recovery after a node crash is log replay.
//   - The BLOCK LAYER is node-local and device-shaped (BlockDev), keeping
//     compatibility with traditional non-memory-semantic storage.
package fs

import (
	"fmt"
	"sync"

	"flacos/internal/fabric"
)

// PageSize is the file system's page granularity (same as memsys).
const PageSize = 4096

// BlockDev is the storage device under the file system. Implementations
// model their own access latency by charging the calling node.
type BlockDev interface {
	// ReadPage fills buf (PageSize bytes) with the stored content of the
	// file's page; ok is false for holes the device has never written.
	ReadPage(n *fabric.Node, fileID uint64, page uint32, buf []byte) (ok bool)
	// WritePage persists one page of a file.
	WritePage(n *fabric.Node, fileID uint64, page uint32, data []byte)
}

// MemDev is an in-memory BlockDev with configurable access latency,
// standing in for an NVMe device or a remote registry backend.
type MemDev struct {
	ReadLatencyNS  int
	WriteLatencyNS int

	mu    sync.Mutex
	pages map[uint64][]byte
	reads uint64
}

// NewMemDev creates a device with the given per-page access latencies.
func NewMemDev(readLatNS, writeLatNS int) *MemDev {
	return &MemDev{
		ReadLatencyNS:  readLatNS,
		WriteLatencyNS: writeLatNS,
		pages:          make(map[uint64][]byte),
	}
}

func devKey(fileID uint64, page uint32) uint64 {
	if fileID == 0 || fileID >= 1<<32 {
		panic(fmt.Sprintf("fs: file id %d out of range", fileID))
	}
	return fileID<<32 | uint64(page)
}

// ReadPage implements BlockDev.
func (d *MemDev) ReadPage(n *fabric.Node, fileID uint64, page uint32, buf []byte) bool {
	n.ChargeNS(d.ReadLatencyNS)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	p, ok := d.pages[devKey(fileID, page)]
	if !ok {
		return false
	}
	copy(buf, p)
	return true
}

// WritePage implements BlockDev.
func (d *MemDev) WritePage(n *fabric.Node, fileID uint64, page uint32, data []byte) {
	n.ChargeNS(d.WriteLatencyNS)
	cp := make([]byte, PageSize)
	copy(cp, data)
	d.mu.Lock()
	d.pages[devKey(fileID, page)] = cp
	d.mu.Unlock()
}

// Reads returns how many page reads the device has served (cache-miss
// accounting for the experiments).
func (d *MemDev) Reads() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}
