package extio

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

func testCfg(t *testing.T, block, mem int) Config {
	t.Helper()
	return Config{
		BlockRecords:  block,
		MemoryRecords: mem,
		Dir:           t.TempDir(),
		Counter:       &Counter{},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := testCfg(t, 4, 16)
	path := filepath.Join(cfg.Dir, "recs")
	recs := []Record{{1, 2, 3}, {4, 5, 6}, {-1, -2, 7}, {9, 9, 9}, {0, 0, 0}}
	if err := WriteAll(path, cfg, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %v != %v", i, got[i], recs[i])
		}
	}
}

func TestIOCounting(t *testing.T) {
	cfg := testCfg(t, 4, 16)
	path := filepath.Join(cfg.Dir, "recs")
	// 10 records with block size 4 -> 3 write blocks, 3 read blocks.
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{int32(i), 0, 0})
	}
	if err := WriteAll(path, cfg, recs); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Counter.Writes(); got != 3 {
		t.Errorf("writes = %d, want 3", got)
	}
	if _, err := ReadAll(path, cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Counter.Reads(); got != 3 {
		t.Errorf("reads = %d, want 3", got)
	}
	if cfg.Counter.Total() != 6 {
		t.Errorf("total = %d", cfg.Counter.Total())
	}
}

func TestEmptyFile(t *testing.T) {
	cfg := testCfg(t, 4, 16)
	path := filepath.Join(cfg.Dir, "empty")
	if err := WriteAll(path, cfg, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path, cfg)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read: %v %v", got, err)
	}
	if n, err := SortUnique(path, cfg); err != nil || n != 0 {
		t.Fatalf("sorting empty file: %d records, %v", n, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{BlockRecords: 0, MemoryRecords: 10}).Validate(); err == nil {
		t.Error("zero block accepted")
	}
	if err := (Config{BlockRecords: 8, MemoryRecords: 8}).Validate(); err == nil {
		t.Error("M < 2B accepted")
	}
	if _, err := NewWriter("/nonexistent-dir-xyz/f", Config{BlockRecords: 1, MemoryRecords: 2}); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := NewReader("/nonexistent-file-xyz", Config{BlockRecords: 1, MemoryRecords: 2}); err == nil {
		t.Error("missing file accepted")
	}
}

// sortUniqueRef is SortUnique's contract in memory: sort by Less, then
// keep the first (minimum-V) record of each (K1, K2) pair.
func sortUniqueRef(recs []Record) []Record {
	s := slices.Clone(recs)
	slices.SortFunc(s, compareRecords)
	return slices.CompactFunc(s, func(a, b Record) bool { return a.K1 == b.K1 && a.K2 == b.K2 })
}

func compareRecords(a, b Record) int {
	if c := cmp.Compare(a.K1, b.K1); c != 0 {
		return c
	}
	if c := cmp.Compare(a.K2, b.K2); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// sortUniqueFile writes recs to a fresh file, sorts it with SortUnique
// and returns what the file then holds.
func sortUniqueFile(t *testing.T, cfg Config, recs []Record) []Record {
	t.Helper()
	path := filepath.Join(cfg.Dir, "recs")
	if err := WriteAll(path, cfg, recs); err != nil {
		t.Fatal(err)
	}
	n, err := SortUnique(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(got)) {
		t.Fatalf("SortUnique reported %d records, file holds %d", n, len(got))
	}
	return got
}

func TestSortUniqueSmall(t *testing.T) {
	cfg := testCfg(t, 2, 4) // force many runs and multi-pass merging
	rng := rand.New(rand.NewSource(1))
	var recs []Record
	for i := 0; i < 333; i++ {
		recs = append(recs, Record{rng.Int31n(50), rng.Int31n(50), uint32(rng.Intn(10))})
	}
	got := sortUniqueFile(t, cfg, recs)
	if want := sortUniqueRef(recs); !slices.Equal(got, want) {
		t.Fatalf("SortUnique kept %d records, reference %d:\n%v\n%v", len(got), len(want), got, want)
	}
}

func TestSortUniqueQuick(t *testing.T) {
	cfg := testCfg(t, 3, 7)
	f := func(keys []uint16) bool {
		path := filepath.Join(cfg.Dir, "q")
		recs := make([]Record, len(keys))
		for i, k := range keys {
			recs[i] = Record{int32(k%64) - 32, int32(k / 64 % 8), uint32(i % 5)}
		}
		if err := WriteAll(path, cfg, recs); err != nil {
			return false
		}
		if _, err := SortUnique(path, cfg); err != nil {
			return false
		}
		got, err := ReadAll(path, cfg)
		return err == nil && slices.Equal(got, sortUniqueRef(recs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSortUniqueProperties checks SortUnique against the in-memory
// reference on inputs sized around the block and the memory budget,
// with negative keys, heavy duplication and ties in V, under budgets
// whose fan-in forces one-run, one-merge and multi-pass sorts.
func TestSortUniqueProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bm := range []struct{ b, m int }{{4, 8}, {3, 16}, {16, 256}} {
		b, m := bm.b, bm.m
		fan := max(m/b-1, 2)
		multi := (fan*fan+1)*m + 3 // more runs than one merge pass takes
		for _, n := range []int{0, 1, b - 1, b, b + 1, m - 1, m, m + 1, 5*m + 2, multi} {
			for _, keyRange := range []int32{3, 40, 1 << 30} {
				recs := make([]Record, n)
				for i := range recs {
					recs[i] = Record{
						K1: rng.Int31n(keyRange) - keyRange/2,
						K2: rng.Int31n(keyRange) - keyRange/2,
						V:  uint32(rng.Intn(4)),
					}
				}
				cfg := testCfg(t, b, m)
				got := sortUniqueFile(t, cfg, recs)
				if want := sortUniqueRef(recs); !slices.Equal(got, want) {
					t.Fatalf("B=%d M=%d n=%d keys<%d: SortUnique kept %d records, reference %d",
						b, m, n, keyRange, len(got), len(want))
				}
			}
		}
	}
}

// TestSortRecordsExtremes sorts full-range keys, including the int32
// and uint32 extremes, in memory and checks the order against Less.
func TestSortRecordsExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
	var recs []Record
	for i := 0; i < 2000; i++ {
		r := Record{int32(rng.Uint32()), int32(rng.Uint32()), rng.Uint32()}
		if i%3 == 0 {
			r.K1 = edges[rng.Intn(len(edges))]
			r.K2 = edges[rng.Intn(len(edges))]
			r.V = []uint32{0, math.MaxUint32}[rng.Intn(2)]
		}
		recs = append(recs, r)
	}
	want := slices.Clone(recs)
	slices.SortStableFunc(want, compareRecords)
	SortRecords(recs)
	if !slices.Equal(recs, want) {
		t.Fatal("SortRecords order differs from Less")
	}
}

// TestMergeUnique merges three sorted, per-file unique inputs that share
// pairs and checks that each pair keeps its minimum V.
func TestMergeUnique(t *testing.T) {
	cfg := testCfg(t, 2, 8)
	inputs := [][]Record{
		{{-3, 0, 5}, {1, 0, 0}, {1, 2, 7}, {3, 0, 0}, {5, 0, 4}},
		{{-3, 0, 2}, {1, 2, 7}, {2, 0, 0}, {4, 0, 0}, {5, 0, 9}},
		{{1, 2, 1}, {5, 0, 4}, {6, 6, 6}},
	}
	var paths []string
	var all []Record
	for i, recs := range inputs {
		p := filepath.Join(cfg.Dir, fmt.Sprint("in", i))
		if err := WriteAll(p, cfg, recs); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		all = append(all, recs...)
	}
	out := filepath.Join(cfg.Dir, "out")
	n, err := MergeUnique(paths, out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{-3, 0, 2}, {1, 0, 0}, {1, 2, 1}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0}, {5, 0, 4}, {6, 6, 6}}
	if !slices.Equal(got, want) || !slices.Equal(got, sortUniqueRef(all)) || n != int64(len(want)) {
		t.Fatalf("merged %d records %v, want %v", n, got, want)
	}
}

// TestSortUniqueTruncated: a record file whose size is not a multiple of
// RecordBytes must fail the sort, not sort its intact prefix.
func TestSortUniqueTruncated(t *testing.T) {
	cfg := testCfg(t, 4, 16)
	path := filepath.Join(cfg.Dir, "recs")
	if err := WriteAll(path, cfg, []Record{{2, 0, 0}, {1, 0, 0}, {3, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := SortUnique(path, cfg); err == nil {
		t.Fatal("SortUnique accepted a truncated record file")
	}
}

func TestSortIOsScaleWithPasses(t *testing.T) {
	// With a tiny memory budget, sorting must touch each record more
	// than once but still far fewer times than N (it is block-based).
	cfg := testCfg(t, 8, 16)
	path := filepath.Join(cfg.Dir, "recs")
	var recs []Record
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		recs = append(recs, Record{rng.Int31(), 0, 0})
	}
	if err := WriteAll(path, cfg, recs); err != nil {
		t.Fatal(err)
	}
	before := cfg.Counter.Total()
	if _, err := SortUnique(path, cfg); err != nil {
		t.Fatal(err)
	}
	ios := cfg.Counter.Total() - before
	blocks := int64(len(recs) / cfg.BlockRecords)
	if ios < 2*blocks {
		t.Errorf("IOs = %d, implausibly low for external sort of %d blocks", ios, blocks)
	}
	if ios > 50*blocks {
		t.Errorf("IOs = %d, implausibly high (non-block-granular accounting?)", ios)
	}
}
