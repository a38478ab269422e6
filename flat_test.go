package hopdb

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestDistanceBatchRaceFlat hammers DistanceBatch with many workers over
// the flat CSR index — including a memory-mapped one — so `go test -race`
// verifies the query hot path is free of data races.
func TestDistanceBatchRaceFlat(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(500, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "race.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path, WithMmap())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mapped := q.(*Index)

	var pairs []QueryPair
	for s := int32(0); s < g.N(); s += 3 {
		for u := int32(0); u < g.N(); u += 41 {
			pairs = append(pairs, QueryPair{S: s, T: u})
		}
	}
	want := idx.DistanceBatch(pairs, 1)
	for _, x := range []*Index{idx, mapped} {
		got := x.DistanceBatch(pairs, 8)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallel batch differs at %d: %d vs %d", i, got[i], want[i])
			}
		}
	}
}

// TestOpenMmapRetainsNoHeap checks that WithMmap serves the labels from
// the mapping: opening a mapped index retains a small fraction of the
// file's size in heap, not a decoded copy of it, and still reports the
// mmap backend.
func TestOpenMmapRetainsNoHeap(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(5000, 4, 29))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mmap.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, g = nil, nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	q, err := Open(path, WithMmap())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer q.Close()

	if got := q.Stats().Backend; got != BackendMmap {
		t.Errorf("Stats().Backend = %q, want %q", got, BackendMmap)
	}
	retained := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("retained %d heap bytes for a %d-byte index", retained, st.Size())
	if retained > st.Size()/10 {
		t.Errorf("Open(WithMmap) retains %d heap bytes for a %d-byte index, want < 10%%", retained, st.Size())
	}
}

// TestOpenRejectsV1 checks that a file in the first release's v1 format
// (magic HDIX), whose reader is gone, is refused by name on both the heap
// and the mmap path instead of failing as a malformed v2 image.
func TestOpenRejectsV1(t *testing.T) {
	v1 := filepath.Join(t.TempDir(), "v1.idx")
	// magic | version 1 | flags 0 | n = 2 | two empty rows
	if err := os.WriteFile(v1, []byte("HDIX\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]OpenOption{"heap": nil, "mmap": {WithMmap()}} {
		q, err := Open(v1, opts...)
		if err == nil {
			q.Close()
			t.Fatalf("%s: Open accepted a v1 file", name)
		}
		if !strings.Contains(err.Error(), "v1 index files are no longer readable") {
			t.Errorf("%s: error does not name the v1 format: %v", name, err)
		}
	}
}
