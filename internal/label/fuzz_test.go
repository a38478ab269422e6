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

import (
	"bytes"
	"testing"

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
// time, not load time.
func FuzzParseFlat(f *testing.F) {
	good := fuzzImage(f, func(x *label.Index, buf *bytes.Buffer) error {
		return label.Freeze(x).Write(buf)
	})
	seedCorrupt(f, good)
	// The v2 header has reserved zero fields; flip one so that class of
	// damage is seeded too.
	f.Add(mutate(good, func(b []byte) []byte { b[6] = 1; return b }))
	f.Fuzz(func(t *testing.T, b []byte) {
		x, err := label.ParseFlat(b)
		if err != nil {
			return
		}
		checkParsedFlat(t, x, len(b))
	})
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
