package diskidx_test

// FuzzOpenDisk fuzzes the disk-resident open: arbitrary bytes written to
// a file either fail Open with a clean error or open into an index whose
// queries neither panic nor fail to read, and wherever label.ParseFlat
// accepts the same bytes every answer equals the heap index's. Run
// continuously with
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
		var sc diskidx.Scratch
		probe := []int32{-1, 0, 1, d.N() / 2, d.N() - 1, d.N(), d.N() + 7}
		for _, s := range probe {
			for _, u := range probe {
				got, err := d.DistanceScratch(s, u, &sc)
				if err != nil {
					// The file is intact: a failed read is a row bound
					// Open should have refused.
					t.Fatalf("dist(%d,%d): %v", s, u, err)
				}
				if heapErr == nil {
					if want := heap.Distance(s, u); got != want {
						t.Fatalf("dist(%d,%d) = %d on disk, %d on the heap", s, u, got, want)
					}
				}
			}
		}
	})
}
