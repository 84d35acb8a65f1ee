package serverless

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"testing"
)

// contentByByte is the layer generator Content replaced: it mixes the
// layer's word k once for each of its 8 bytes. It stays here as the
// reference Content must match byte for byte, so every artifact built from
// layer bytes stands.
func contentByByte(l Layer, off uint64, buf []byte) {
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

// TestLayerContentMatchesByteGenerator: over several digests, every
// offset of two words and every length from 0 to 300 bytes, Content writes
// what the byte-at-a-time generator writes, and nothing outside buf.
func TestLayerContentMatchesByteGenerator(t *testing.T) {
	digests := []string{"", "sha256:abc", "sha256:pytorch-0", "sha256:img-17-3"}
	got, want := make([]byte, 302), make([]byte, 302)
	for _, d := range digests {
		l := Layer{Digest: d, Size: 1 << 20}
		for _, base := range []uint64{0, 4096, 1<<20 - 160} {
			for off := base; off < base+16; off++ {
				for n := 0; n <= 300; n++ {
					for i := range got {
						got[i], want[i] = 0xee, 0xee
					}
					l.Content(off, got[1:1+n])
					contentByByte(l, off, want[1:1+n])
					if !bytes.Equal(got, want) {
						t.Fatalf("digest %q, offset %d, length %d: Content differs from the byte generator", d, off, n)
					}
				}
			}
		}
	}
}

// TestLayerContentDigest pins the SHA-256 of one whole 4 MiB layer named
// as the benchmark names its images' layers, so a change to the generator
// and its reference together still fails here.
func TestLayerContentDigest(t *testing.T) {
	l := Layer{Digest: "sha256:img-1-0-0", Size: 4 << 20}
	buf := make([]byte, l.Size)
	l.Content(0, buf)
	const want = "550de2f30bbf37c3cf90f90d9a19e36e871b92f93f0d07b500f317e34e36ef72"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != want {
		t.Fatalf("layer %s hashes to %s, want %s", l.Digest, got, want)
	}
}
