package fs

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRandomOpsAgainstModel drives the FS with a randomized but seeded
// sequence of writes, reads and writes at the end of the file from two
// nodes,
// checking every observation against a plain in-memory model. This is the
// whole-file-system invariant test: whatever interleaving of shared-cache
// installs, multi-version updates and size CAS races happens underneath,
// reads must always return exactly what the model says.
func TestRandomOpsAgainstModel(t *testing.T) {
	f, fsys, _ := newFS(t, 2)
	mounts := []*Mount{fsys.Mount(f.Node(0)), fsys.Mount(f.Node(1))}
	id, err := mounts[0].Create("model-file")
	if err != nil {
		t.Fatal(err)
	}
	model := []byte{}
	rng := rand.New(rand.NewSource(12345))

	grow := func(to int) {
		for len(model) < to {
			model = append(model, 0)
		}
	}
	const maxSize = 48 * PageSize
	for step := 0; step < 800; step++ {
		m := mounts[rng.Intn(2)]
		switch rng.Intn(4) {
		case 0, 1: // write at random offset
			off := rng.Intn(maxSize - 9000)
			ln := 1 + rng.Intn(9000)
			data := make([]byte, ln)
			rng.Read(data)
			if _, err := m.Write(id, uint64(off), data); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			grow(off + ln)
			copy(model[off:], data)
		case 2: // write at the end, from the size the other node left
			if len(model) > maxSize-3000 {
				continue
			}
			ln := 1 + rng.Intn(3000)
			data := make([]byte, ln)
			rng.Read(data)
			if _, err := m.Write(id, m.Size(id), data); err != nil {
				t.Fatalf("step %d write at end: %v", step, err)
			}
			model = append(model, data...)
		case 3: // read at random offset and verify
			if len(model) == 0 {
				continue
			}
			off := rng.Intn(len(model))
			ln := 1 + rng.Intn(len(model)-off)
			buf := make([]byte, ln)
			n, err := m.Read(id, uint64(off), buf)
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			if n != ln {
				t.Fatalf("step %d: read %d of %d at %d (size %d, fs says %d)",
					step, n, ln, off, len(model), m.Size(id))
			}
			if !bytes.Equal(buf[:n], model[off:off+n]) {
				t.Fatalf("step %d: content mismatch at %d+%d", step, off, ln)
			}
		}
		if got := m.Size(id); got != uint64(len(model)) {
			t.Fatalf("step %d: size %d, model %d", step, got, len(model))
		}
	}
	// Final end-to-end sweep.
	got := make([]byte, len(model))
	if n, _ := mounts[1].Read(id, 0, got); n != len(model) || !bytes.Equal(got, model) {
		t.Fatal("final full-file read diverged from model")
	}
}
