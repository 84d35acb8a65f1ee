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

// Content fills buf with the layer's bytes at offset off.
func (l Layer) Content(off uint64, buf []byte) {
	h := fnv.New64a()
	h.Write([]byte(l.Digest))
	seed := h.Sum64()
	for i := range buf {
		x := seed + (off+uint64(i))/8
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		buf[i] = byte(x >> ((off + uint64(i)) % 8 * 8))
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

	mu     sync.Mutex
	images map[string]Image
	pulls  uint64
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

// PullLayer streams one layer's bytes through buf, invoking sink once per
// len(buf) bytes; sink must not keep the slice it is handed. The transfer
// cost (RTT + size/bandwidth) is charged to n.
func (r *Registry) PullLayer(n *fabric.Node, l Layer, buf []byte, sink func(off uint64, data []byte)) {
	n.ChargeNS(r.RTTNS + int(float64(l.Size)/r.BytesPerNS))
	chunk := uint64(len(buf))
	for off := uint64(0); off < l.Size; off += chunk {
		sz := min(chunk, l.Size-off)
		l.Content(off, buf[:sz])
		sink(off, buf[:sz])
	}
}

// LayerPulls returns how many registry requests have been served.
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
