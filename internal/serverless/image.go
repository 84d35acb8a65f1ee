// Package serverless is the paper's case study (§4.1): a rack-level
// serverless architecture on FlacOS. Container images flow through the
// FlacOS shared page cache (one copy rack-wide), services interact over
// FlacOS IPC and migration RPC instead of cross-node networking, and the
// control plane uses FlacOS scheduling and fault-box recovery for
// elasticity, density and availability.
//
// The container-startup experiment of §4.2 is reproduced by the
// NodeRuntime: starting the same image on a second node is a COLD start
// without FlacOS (pull everything from the registry), a SHARED-CACHE start
// with FlacOS (image bytes already in global memory; only the manifest
// and local runtime work remain), and a HOT start when the node itself
// already ran the image.
package serverless

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"flacos/internal/fabric"
)

// Layer is one content-addressed image layer. Its bytes are synthesized
// deterministically from the digest, standing in for real layer tarballs.
type Layer struct {
	Digest string
	Size   uint64
}

// Content fills buf with the layer's bytes at offset off. The layer is a
// sequence of little-endian 64-bit words, word k a mix of the digest's
// hash plus k, so each word is computed once and stored whole; only an
// unaligned head and tail take bytes of a word one at a time.
func (l Layer) Content(off uint64, buf []byte) {
	h := fnv.New64a()
	h.Write([]byte(l.Digest))
	seed := h.Sum64()
	word := func(k uint64) uint64 {
		x := seed + k
		x ^= x >> 33
		return x * 0xff51afd7ed558ccd
	}
	byteAt := func(a uint64) byte { return byte(word(a/8) >> (a % 8 * 8)) }
	i := 0
	for ; i < len(buf) && (off+uint64(i))%8 != 0; i++ {
		buf[i] = byteAt(off + uint64(i))
	}
	for ; len(buf)-i >= 8; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], word((off+uint64(i))/8))
	}
	for ; i < len(buf); i++ {
		buf[i] = byteAt(off + uint64(i))
	}
}

// Image is a named manifest listing layers.
type Image struct {
	Name         string
	Layers       []Layer
	ManifestSize uint64
}

// TotalBytes returns the image's layer bytes.
func (img Image) TotalBytes() uint64 {
	var t uint64
	for _, l := range img.Layers {
		t += l.Size
	}
	return t
}

// Registry is the remote image registry: the slow, WAN-ish store cold
// starts pull from. Costs are charged to the pulling node.
type Registry struct {
	// RTTNS is the per-request round trip to the registry.
	RTTNS int
	// BytesPerNS is the pull bandwidth (0.2 = 200 MB/s, the paper's 4 GB
	// image in ~20 s).
	BytesPerNS float64

	mu           sync.Mutex
	images       map[string]Image
	pulls        uint64 // manifest requests
	layerBatches uint64 // PullLayers calls
}

// NewRegistry creates a registry with the given cost model.
func NewRegistry(rttNS int, bytesPerNS float64) *Registry {
	return &Registry{RTTNS: rttNS, BytesPerNS: bytesPerNS, images: make(map[string]Image)}
}

// Push publishes an image.
func (r *Registry) Push(img Image) {
	r.mu.Lock()
	r.images[img.Name] = img
	r.mu.Unlock()
}

// PullManifest fetches an image's manifest, charging one round trip plus
// the manifest transfer.
func (r *Registry) PullManifest(n *fabric.Node, name string) (Image, error) {
	r.mu.Lock()
	img, ok := r.images[name]
	r.pulls++
	r.mu.Unlock()
	if !ok {
		return Image{}, fmt.Errorf("serverless: image %q not in registry", name)
	}
	n.ChargeNS(r.RTTNS + int(float64(img.ManifestSize)/r.BytesPerNS))
	return img, nil
}

// PullLayers fetches layers in one batch, as a stock runtime pulls an
// image's missing layers: every request goes out together, so the batch
// pays one round trip, and the bytes share the one link, so the transfer
// takes Σsize/BytesPerNS. The bytes stream through buf: sink(i, off, data)
// is called once per len(buf) bytes of layers[i] and must not keep data.
// Each chunk is installed by sink while the next one is on the wire, so n
// is charged
//
//	RTTNS + max(Σsize/BytesPerNS, install)
//
// where install is n's VirtualNS delta across the sink calls. That measure
// is exact when nothing else charges n during the pull, as in bench and
// flacbench, which run one start at a time. It over-counts when other
// goroutines charge the same node meanwhile, which only torture and core
// racks do; a per-CPU clock (ROADMAP item 16) would make it exact there.
func (r *Registry) PullLayers(n *fabric.Node, layers []Layer, buf []byte, sink func(i int, off uint64, data []byte)) {
	r.mu.Lock()
	r.layerBatches++
	r.mu.Unlock()
	n.ChargeNS(r.RTTNS)
	var total uint64
	installStart := n.VirtualNS()
	chunk := uint64(len(buf))
	for i, l := range layers {
		total += l.Size
		for off := uint64(0); off < l.Size; off += chunk {
			sz := min(chunk, l.Size-off)
			l.Content(off, buf[:sz])
			sink(i, off, buf[:sz])
		}
	}
	install := n.VirtualNS() - installStart
	if transfer := uint64(float64(total) / r.BytesPerNS); transfer > install {
		n.ChargeNS(int(transfer - install))
	}
}

// LayerPulls returns how many manifest requests the registry has served.
// Despite its name it counts no layer transfer: PullLayers batches are
// counted apart.
func (r *Registry) LayerPulls() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pulls
}

// SyntheticImage builds an image of layerCount layers totalling totalBytes.
func SyntheticImage(name string, layerCount int, totalBytes uint64) Image {
	img := Image{Name: name, ManifestSize: 4096}
	per := totalBytes / uint64(layerCount)
	for i := 0; i < layerCount; i++ {
		sz := per
		if i == layerCount-1 {
			sz = totalBytes - per*uint64(layerCount-1)
		}
		img.Layers = append(img.Layers, Layer{
			Digest: fmt.Sprintf("sha256:%s-%d", name, i),
			Size:   sz,
		})
	}
	return img
}
