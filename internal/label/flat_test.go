package label_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/label"
)

// buildRandom constructs a 2-hop index over a random graph of the given
// shape via the real builder, so the frozen form is exercised on the same
// label distributions queries see in production.
func buildRandom(t *testing.T, n int32, directed, weighted bool, seed int64) (*graph.Graph, *label.Index) {
	t.Helper()
	g, err := gen.ER(n, int(n)*3, directed, seed)
	if err != nil {
		t.Fatal(err)
	}
	if weighted {
		g, err = gen.WithRandomWeights(g, 7, seed+1)
		if err != nil {
			t.Fatal(err)
		}
	}
	x, _, err := core.Build(g, core.Options{Method: core.Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	return g, x
}

// TestFlatEquivalenceProperty is the property test: on randomized
// directed/undirected, weighted/unweighted graphs, the frozen CSR index
// must answer every query identically to the slice-of-slices index, and
// the round-trip through View must reproduce the exact label sets.
func TestFlatEquivalenceProperty(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			for seed := int64(0); seed < 4; seed++ {
				g, x := buildRandom(t, 120, directed, weighted, 1000+seed)
				f := label.Freeze(x)
				if err := f.Validate(); err != nil {
					t.Fatalf("directed=%v weighted=%v seed=%d: frozen index invalid: %v", directed, weighted, seed, err)
				}
				if f.Entries() != x.Entries() || f.MaxLabel() != x.MaxLabel() {
					t.Fatalf("directed=%v weighted=%v seed=%d: stats diverge", directed, weighted, seed)
				}
				if !f.View().Equal(x) {
					t.Fatalf("directed=%v weighted=%v seed=%d: view does not reproduce label sets", directed, weighted, seed)
				}
				rng := rand.New(rand.NewSource(seed))
				for q := 0; q < 2000; q++ {
					s, u := rng.Int31n(g.N()), rng.Int31n(g.N())
					want := x.Distance(s, u)
					if got := f.Distance(s, u); got != want {
						t.Fatalf("directed=%v weighted=%v seed=%d: flat Distance(%d,%d) = %d, nested %d",
							directed, weighted, seed, s, u, got, want)
					}
					wantPivot, wantDist := x.MeetingPivot(s, u)
					if gotPivot, gotDist := f.MeetingPivot(s, u); gotPivot != wantPivot || gotDist != wantDist {
						t.Fatalf("directed=%v weighted=%v seed=%d: flat MeetingPivot(%d,%d) = (%d,%d), nested (%d,%d)",
							directed, weighted, seed, s, u, gotPivot, gotDist, wantPivot, wantDist)
					}
				}
			}
		}
	}
}

// TestFlatSerializeRoundTrip checks that Write -> ParseFlat / LoadFlatFile
// / MmapFlat all reproduce the index exactly, for both sides and with a
// permutation present.
func TestFlatSerializeRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		_, x := buildRandom(t, 151, directed, false, 77) // odd n exercises perm padding
		f := label.Freeze(x)
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := label.ParseFlat(buf.Bytes())
		if err != nil {
			t.Fatalf("directed=%v: ParseFlat: %v", directed, err)
		}
		if !parsed.Equal(f) {
			t.Fatalf("directed=%v: parsed index differs", directed)
		}
		if (parsed.Perm == nil) != (f.Perm == nil) {
			t.Fatalf("directed=%v: perm presence lost", directed)
		}
		// Inv is load-deferred; View must reconstruct it from Perm.
		view := parsed.View()
		for v := int32(0); v < f.N; v++ {
			if f.Inv != nil && view.Inv[v] != f.Inv[v] {
				t.Fatalf("directed=%v: inv[%d] differs", directed, v)
			}
		}

		path := filepath.Join(t.TempDir(), "flat.idx")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := label.LoadFlatFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.Equal(f) {
			t.Fatalf("directed=%v: loaded index differs", directed)
		}
		mapped, err := label.MmapFlat(path)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < f.N; v += 13 {
			for u := int32(0); u < f.N; u += 7 {
				if mapped.Distance(v, u) != f.Distance(v, u) {
					t.Fatalf("directed=%v: mapped Distance(%d,%d) differs", directed, v, u)
				}
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mapped.Close(); err != nil {
			t.Fatal("second Close should be a no-op")
		}
	}
}

// TestFlatLoadAllocations asserts the headline property of the v2 format:
// loading performs O(1) allocations for the label payload instead of one
// per vertex.
func TestFlatLoadAllocations(t *testing.T) {
	_, x := buildRandom(t, 400, false, false, 5)
	f := label.Freeze(x)
	f.Perm, f.Inv = nil, nil // isolate the payload from the perm/inv tables
	path := filepath.Join(t.TempDir(), "flat.idx")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		loaded, err := label.LoadFlatFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_ = loaded
	})
	// One buffer for the file image plus constant bookkeeping (file
	// handle, stat, index struct), never one slice per vertex.
	if allocs > 12 {
		t.Errorf("LoadFlatFile allocates %v times per load, want O(1)", allocs)
	}
}

// TestFlatParseRejectsCorrupt feeds damaged v2 images to ParseFlat and
// requires a clean error for each.
func TestFlatParseRejectsCorrupt(t *testing.T) {
	_, x := buildRandom(t, 60, true, false, 9)
	f := label.Freeze(x)
	if f.Perm == nil {
		t.Fatal("builder no longer sets a permutation; section offsets below assume one")
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := label.ParseFlat(b); err == nil {
			t.Errorf("%s: corrupt image accepted", name)
		}
	}
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("bad version", func(b []byte) []byte { b[4] = 9; return b })
	corrupt("unknown flags", func(b []byte) []byte { b[5] |= 0x80; return b })
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("truncated offsets", func(b []byte) []byte { return b[:20] })
	corrupt("truncated entries", func(b []byte) []byte { return b[:len(b)-8] })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) })
	corrupt("huge vertex count", func(b []byte) []byte {
		b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0x7f
		return b
	})
	corrupt("corrupt pivot value", func(b []byte) []byte {
		// Overwrite the last entry's pivot field with a huge id: it can
		// no longer outrank its owner, so full validation must reject it
		// even though the framing (offsets, sizes) is intact.
		if len(b) < 8 {
			t.Fatal("image unexpectedly small")
		}
		b[len(b)-8], b[len(b)-7], b[len(b)-6], b[len(b)-5] = 0xfe, 0xff, 0xff, 0x7f
		return b
	})
	corrupt("decreasing offsets", func(b []byte) []byte {
		// First out-offset entry (vertex 1) rewritten above the final
		// offset so monotonicity fails.
		permBytes := 4 * int(f.N)
		permBytes = (permBytes + 7) &^ 7
		pos := 16 + permBytes + 8
		for i := 0; i < 8; i++ {
			b[pos+i] = 0xff
		}
		return b
	})
}
