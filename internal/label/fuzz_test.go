package label_test

// Fuzz targets for the on-disk readers. The contract under fuzzing:
// arbitrary bytes either parse into an index that satisfies the label
// invariants, or fail with a clean error — never a panic, and never an
// allocation driven by a corrupt count rather than the input size. Run
// continuously with
//
//	go test -fuzz FuzzParseFlat ./internal/label
//	go test -fuzz FuzzParseCompact ./internal/label
//
// plain `go test` replays the seed corpus, which is built from a real
// index image plus the corrupt-file corpus the regression tests use.
// FuzzParseFlat also covers shard files, which are v2 range images.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	hopdb "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/label"
)

// fuzzImage builds a small real index and serializes it with write, so
// the corpus starts from a well-formed file of each format.
func fuzzImage(f *testing.F, write func(*label.Index, *bytes.Buffer) error) []byte {
	f.Helper()
	g, err := gen.ER(40, 120, true, 31)
	if err != nil {
		f.Fatal(err)
	}
	x, _, err := core.Build(g, core.Options{Method: core.Hybrid})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(x, &buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// mutate returns a copy of b transformed by fn, for corpus seeding.
func mutate(b []byte, fn func([]byte) []byte) []byte {
	return fn(append([]byte(nil), b...))
}

// seedCorrupt adds the shared corrupt-file corpus (the same damage
// classes the regression tests assert on) to the seed corpus.
func seedCorrupt(f *testing.F, good []byte) {
	f.Helper()
	f.Add([]byte{})
	f.Add(good)
	f.Add(mutate(good, func(b []byte) []byte { b[0] = 'X'; return b }))                      // bad magic
	f.Add(mutate(good, func(b []byte) []byte { b[4] = 9; return b }))                        // bad version
	f.Add(mutate(good, func(b []byte) []byte { b[5] |= 0x80; return b }))                    // unknown flags
	f.Add(mutate(good, func(b []byte) []byte { return b[:10] }))                             // truncated header
	f.Add(mutate(good, func(b []byte) []byte { return b[:len(b)/2] }))                       // truncated payload
	f.Add(mutate(good, func(b []byte) []byte { return b[:len(b)-3] }))                       // ragged tail
	f.Add(mutate(good, func(b []byte) []byte { return append(b, 0, 1, 2, 3) }))              // trailing garbage
	f.Add(mutate(good, func(b []byte) []byte { b[len(b)-8] = 0xfe; return b }))              // corrupt entry
	f.Add(mutate(good, func(b []byte) []byte { copy(b[6:], "\xff\xff\xff\x7f"); return b })) // header damage
}

// checkParsedFlat sanity-checks an accepted flat image: invariants hold
// and queries cannot fault.
func checkParsedFlat(t *testing.T, x *label.FlatIndex, size int) {
	t.Helper()
	if err := x.Validate(); err != nil {
		t.Fatalf("accepted image fails validation: %v", err)
	}
	// The arrays alias the input, so their total size is bounded by it.
	if x.Entries() > int64(size/8)+1 {
		t.Fatalf("claims %d entries from %d input bytes", x.Entries(), size)
	}
	probe := []int32{-1, 0, 1, x.N - 1, x.N, x.N + 7}
	for _, s := range probe {
		for _, u := range probe {
			x.Distance(s, u)
		}
	}
}

// FuzzParseFlat fuzzes the v2 flat reader: the zero-copy path that
// serves production queries, where a missed bound is a fault at query
// time, not load time. Every input goes through both the whole-index
// parse and the range (shard) parse; the corpus adds the hub and a leaf
// of a real directed shard cut and their range-header damage.
func FuzzParseFlat(f *testing.F) {
	good := fuzzImage(f, func(x *label.Index, buf *bytes.Buffer) error {
		return label.Freeze(x).Write(buf)
	})
	seedCorrupt(f, good)
	// The v2 header has reserved zero fields; flip one so that class of
	// damage is seeded too.
	f.Add(mutate(good, func(b []byte) []byte { b[6] = 1; return b }))
	for _, img := range shardImages(f) {
		n := int64(binary.LittleEndian.Uint32(img[8:]))
		outOffsets := 24 + (4*n+7)&^7 // header, range, padded perm
		put32 := func(at int64, v uint32) func([]byte) []byte {
			return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], v); return b }
		}
		put64 := func(at int64, v uint64) func([]byte) []byte {
			return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b }
		}
		f.Add(img)
		f.Add(img[:20])                                                         // truncated rank range
		f.Add(mutate(img, put32(16, binary.LittleEndian.Uint32(img[20:])+1)))   // lo > hi
		f.Add(mutate(img, put32(20, uint32(n)+1)))                              // hi > n
		f.Add(mutate(img, func(b []byte) []byte { b[5] |= 1 << 4; return b }))  // hub bit
		f.Add(mutate(img, func(b []byte) []byte { b[5] &^= 1 << 3; return b })) // range bit cleared
		f.Add(mutate(img, put64(outOffsets+8*n, 1<<62)))                        // count*8 overflows
		f.Add(mutate(img, put64(outOffsets+8*(n/2), 1<<40)))                    // middle offset overruns
	}
	// A whole image relabelled as a range image: rows outside the range
	// are not empty.
	f.Add(mutate(good, func(b []byte) []byte {
		n := binary.LittleEndian.Uint32(b[8:])
		b[5] |= 1 << 3
		ext := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, n/2), n)
		return append(append(b[:16:16], ext...), b[16:]...)
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if x, err := label.ParseFlat(b); err == nil {
			checkParsedFlat(t, x, len(b))
		}
		x, rr, err := label.ParseFlatRange(b)
		if err != nil {
			return
		}
		checkParsedFlat(t, x, len(b))
		if rr.Lo < 0 || rr.Lo > rr.Hi || rr.Hi > x.N || (rr.Hub && rr.Lo != 0) {
			t.Fatalf("accepted rank range %+v of %d vertices", rr, x.N)
		}
		for v := int32(0); v < x.N; v++ {
			if (v < rr.Lo || v >= rr.Hi) && len(x.Out(v))+len(x.In(v)) > 0 {
				t.Fatalf("range %+v accepted with a non-empty row %d", rr, v)
			}
		}
		owned := []int32{rr.Lo, (rr.Lo + rr.Hi) / 2, rr.Hi - 1}
		for _, s := range owned {
			for _, u := range owned {
				if s >= rr.Lo && s < rr.Hi && u >= rr.Lo && u < rr.Hi {
					x.DistanceRanked(s, u)
				}
			}
		}
	})
}

// shardImages cuts a small directed graph into shards and returns the
// hub and the first leaf file.
func shardImages(f *testing.F) [][]byte {
	f.Helper()
	g, err := gen.PowerLaw(gen.PowerLawParams{N: 40, Density: 3, Alpha: 2.2, Directed: true, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 2, Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	var imgs [][]byte
	for _, name := range []string{m.HubFile, m.Shards[0].File} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		imgs = append(imgs, b)
	}
	return imgs
}

// FuzzParseCompact fuzzes the v3 delta-coded compact reader. Its counts
// and gaps are attacker-controlled varints, so the contract under fuzz
// is the usual one — clean error or invariant-satisfying index, never a
// panic or a count-driven allocation — plus the format's own promise:
// an accepted image decodes to labels whose size is bounded by the
// input (every encoded entry costs at least 2 bytes).
func FuzzParseCompact(f *testing.F) {
	good := fuzzImage(f, func(x *label.Index, buf *bytes.Buffer) error {
		return label.Freeze(x).WriteCompact(buf)
	})
	seedCorrupt(f, good)
	// Varint-specific damage: a truncated multi-byte varint and an
	// over-long gap in the middle of a row.
	f.Add(mutate(good, func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }))
	f.Add(mutate(good, func(b []byte) []byte { b[len(b)/2] = 0xff; return b }))
	f.Fuzz(func(t *testing.T, b []byte) {
		x, err := label.ParseCompact(b)
		if err != nil {
			return
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("accepted compact image fails validation: %v", err)
		}
		if x.Entries() > int64(len(b))/2 {
			t.Fatalf("claims %d entries from %d input bytes", x.Entries(), len(b))
		}
		probe := []int32{-1, 0, 1, x.N - 1, x.N, x.N + 7}
		for _, s := range probe {
			for _, u := range probe {
				x.Distance(s, u)
			}
		}
		// An accepted image must also feed the packed kernel (when
		// encodable) without divergence.
		if c, ok := label.CompactFrom(x); ok {
			for _, s := range probe {
				for _, u := range probe {
					if got, want := c.Distance(s, u), x.Distance(s, u); got != want {
						t.Fatalf("compact kernel diverges at (%d,%d): %d vs %d", s, u, got, want)
					}
				}
			}
		}
	})
}
