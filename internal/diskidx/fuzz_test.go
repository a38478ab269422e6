package diskidx_test

// FuzzOpenDisk fuzzes the disk-resident open: arbitrary bytes written to
// a file either fail Open with a clean error or open into an index whose
// queries never panic and answer exactly as the heap index over the
// same bytes, or fail with an error. A query fails exactly when a label
// row it reads breaks label.CheckRow (the rows ParseFlat refuses); an
// image ParseFlat accepts answers every query. Run continuously with
//
//	go test -fuzz FuzzOpenDisk ./internal/diskidx

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	hopdb "repro"
	"repro/internal/core"
	"repro/internal/diskidx"
	"repro/internal/gen"
	"repro/internal/label"
)

func FuzzOpenDisk(f *testing.F) {
	g, err := gen.ER(40, 120, true, 31)
	if err != nil {
		f.Fatal(err)
	}
	x, _, err := core.Build(g, core.Options{Method: core.Hybrid})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := label.Freeze(x).Write(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	n := int64(binary.LittleEndian.Uint32(good[8:]))
	outOffsets := 16 + (4*n+7)&^7 // header, padded perm
	mutate := func(fn func([]byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
	put64 := func(at int64, v uint64) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b }
	}
	// FuzzParseFlat's damage classes (internal/label/fuzz_test.go).
	f.Add([]byte{})
	f.Add(good)
	f.Add(mutate(func(b []byte) []byte { b[0] = 'X'; return b }))                      // bad magic
	f.Add(mutate(func(b []byte) []byte { b[4] = 9; return b }))                        // bad version
	f.Add(mutate(func(b []byte) []byte { b[5] |= 0x80; return b }))                    // unknown flags
	f.Add(mutate(func(b []byte) []byte { b[6] = 1; return b }))                        // reserved bytes
	f.Add(mutate(func(b []byte) []byte { return b[:10] }))                             // truncated header
	f.Add(mutate(func(b []byte) []byte { return b[:len(b)/2] }))                       // truncated payload
	f.Add(mutate(func(b []byte) []byte { return b[:len(b)-3] }))                       // ragged tail
	f.Add(mutate(func(b []byte) []byte { return append(b, 0, 1, 2, 3) }))              // trailing garbage
	f.Add(mutate(func(b []byte) []byte { b[len(b)-8] = 0xfe; return b }))              // corrupt entry
	f.Add(mutate(func(b []byte) []byte { clear(b[len(b)-8:]); return b }))             // zeroed last entry
	f.Add(mutate(func(b []byte) []byte { copy(b[6:], "\xff\xff\xff\x7f"); return b })) // header damage
	f.Add(mutate(put64(outOffsets+8*n, 1<<62)))                                        // count*8 overflows
	// The disk reader's own cases: decreasing offsets, an n beyond the
	// file size, and an HDDX header.
	f.Add(mutate(put64(outOffsets+8*(n/2), 1<<40)))
	f.Add(mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1<<31-1); return b }))
	f.Add(append([]byte{'H', 'D', 'D', 'X', 1, 0, 2, 0, 0, 0}, make([]byte, 40)...))
	// Shard (range) images, which a whole-index open refuses.
	dir := f.TempDir()
	sg, err := gen.PowerLaw(gen.PowerLawParams{N: 40, Density: 3, Alpha: 2.2, Directed: true, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	m, _, err := hopdb.BuildShards(sg, hopdb.Options{}, hopdb.ShardConfig{Shards: 2, Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{m.HubFile, m.Shards[0].File} {
		img, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(append(img[:5:5], append([]byte{img[5] &^ (1 << 3)}, img[6:]...)...)) // range bit cleared
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "idx")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := diskidx.Open(path, diskidx.Options{BlockBytes: 64})
		if err != nil {
			return
		}
		defer d.Close()
		heap, heapErr := label.ParseFlat(b)
		if heapErr == nil && d.Entries() != heap.Entries() {
			t.Fatalf("disk open claims %d entries, heap %d", d.Entries(), heap.Entries())
		}
		if heapErr != nil {
			// Open and ParseFlat share the preamble parser, so ParseFlat
			// refused a row: answer from the same image assembled
			// without the row checks.
			heap = uncheckedFlat(t, b)
		}
		var sc diskidx.Scratch
		probe := []int32{-1, 0, 1, d.N() / 2, d.N() - 1, d.N(), d.N() + 7}
		for _, s := range probe {
			for _, u := range probe {
				got, err := d.DistanceScratch(s, u, &sc)
				bad := badRow(heap, s, u)
				switch {
				case bad != nil && err == nil:
					t.Fatalf("dist(%d,%d) = %d from a row that fails its check: %v", s, u, got, bad)
				case bad == nil && err != nil:
					t.Fatalf("dist(%d,%d): %v", s, u, err)
				case err == nil && got != heap.Distance(s, u):
					t.Fatalf("dist(%d,%d) = %d on disk, %d on the heap", s, u, got, heap.Distance(s, u))
				}
			}
		}
	})
}

// uncheckedFlat assembles b as ParseFlat does, but without its row
// checks.
func uncheckedFlat(t *testing.T, b []byte) *label.FlatIndex {
	h, outOff, inOff, err := label.ParseFlatPreamble(int64(len(b)), func(off, n int64) ([]byte, error) {
		return b[off : off+n], nil
	}, false)
	if err != nil {
		t.Fatalf("disk open accepted a preamble ParseFlatPreamble refuses: %v", err)
	}
	f := &label.FlatIndex{Directed: h.Directed, Weighted: h.Weighted, N: h.N, Perm: h.Perm,
		OutOffsets: outOff, InOffsets: inOff}
	outEnd := int64(len(b))
	if f.Directed {
		outEnd -= 8 * inOff[f.N]
		f.InEntries = label.EntriesView(b[outEnd:])
	}
	f.OutEntries = label.EntriesView(b[outEnd-8*outOff[f.N] : outEnd])
	if !f.Directed {
		f.InEntries = f.OutEntries
	}
	return f
}

// badRow returns the label.CheckRow failure of a row the query s -> u
// reads, or nil.
func badRow(f *label.FlatIndex, s, u int32) error {
	if s < 0 || u < 0 || s >= f.N || u >= f.N {
		return nil
	}
	if f.Perm != nil {
		s, u = f.Perm[s], f.Perm[u]
	}
	if s == u {
		return nil
	}
	if err := label.CheckRow("Lout", s, f.Out(s)); err != nil {
		return err
	}
	return label.CheckRow("Lin", u, f.In(u))
}
