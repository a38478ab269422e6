package shard_test

// Unit tests for the shard package through its public surface: the hub
// sizing rule, the shard map's ownership/validation contract, the shard
// file round trip (via BuildShards, so the external record streams are
// exercised too), in-place loading, the row-fetch codec, and the querier
// error semantics.

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	hopdb "repro"
	"repro/internal/gen"
	"repro/internal/label"
	"repro/internal/shard"
	"repro/internal/wire"
)

func TestDefaultHubRanks(t *testing.T) {
	cases := []struct{ n, want int32 }{
		{0, 0}, {1, 1}, {2, 2}, {4, 2}, {7, 3}, {42, 7}, {100, 10}, {101, 11},
	}
	for _, c := range cases {
		if got := shard.DefaultHubRanks(c.n); got != c.want {
			t.Errorf("DefaultHubRanks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func validMap() *shard.Map {
	return &shard.Map{
		Version:  1,
		N:        100,
		HubRanks: 10,
		HubFile:  "hub.sidx",
		Shards: []shard.Range{
			{ID: 0, Lo: 10, Hi: 40, File: "leaf0.sidx"},
			{ID: 1, Lo: 40, Hi: 70, File: "leaf1.sidx"},
			{ID: 2, Lo: 70, Hi: 100, File: "leaf2.sidx"},
		},
	}
}

func TestMapOwnerAndValidate(t *testing.T) {
	m := validMap()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	owners := []struct{ rank, want int32 }{
		{0, -1}, {9, -1}, {10, 0}, {39, 0}, {40, 1}, {69, 1}, {70, 2}, {99, 2},
	}
	for _, c := range owners {
		if got := m.Owner(c.rank); got != c.want {
			t.Errorf("Owner(%d) = %d, want %d", c.rank, got, c.want)
		}
	}

	breakages := []struct {
		name  string
		mut   func(*shard.Map)
		wants string
	}{
		{"gap", func(m *shard.Map) { m.Shards[1].Lo = 41 }, ""},
		{"overlap", func(m *shard.Map) { m.Shards[1].Lo = 39 }, ""},
		{"short coverage", func(m *shard.Map) { m.Shards[2].Hi = 99 }, ""},
		{"bad id", func(m *shard.Map) { m.Shards[2].ID = 7 }, ""},
		{"empty file", func(m *shard.Map) { m.Shards[0].File = "" }, ""},
		{"hub out of range", func(m *shard.Map) { m.HubRanks = 101 }, ""},
	}
	for _, c := range breakages {
		m := validMap()
		c.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken map", c.name)
		}
	}
}

func TestRowsCodecRoundTrip(t *testing.T) {
	keys := []shard.RowKey{{Rank: 0}, {Rank: 12, In: true}, {Rank: 1<<30 + 5}, {Rank: 3, In: true}}
	req := shard.AppendRowsRequest(nil, keys)
	got, err := shard.DecodeRowsRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("decoded %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d round-tripped to %+v, want %+v", i, got[i], keys[i])
		}
	}

	rows := [][]label.Entry{
		{{Pivot: 0, Dist: 1}, {Pivot: 3, Dist: 7}},
		nil,
		{{Pivot: 5, Dist: wire.Infinity - 1}},
	}
	resp := shard.AppendRowsResponse(nil, rows)
	back, err := shard.DecodeRowsResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(back), len(rows))
	}
	for i, row := range rows {
		if len(back[i]) != len(row) {
			t.Fatalf("row %d has %d entries, want %d", i, len(back[i]), len(row))
		}
		for j := range row {
			if back[i][j] != row[j] {
				t.Fatalf("row %d entry %d = %+v, want %+v", i, j, back[i][j], row[j])
			}
		}
	}

	if n := testing.AllocsPerRun(100, func() { shard.AppendRowsResponse(nil, rows) }); n != 1 {
		t.Errorf("AppendRowsResponse(nil, rows) made %v allocations, want 1", n)
	}

	for name, b := range map[string][]byte{
		"short request":     req[:6],
		"bad request magic": append([]byte("XXXX"), req[4:]...),
		"truncated request": req[:len(req)-2],
	} {
		if _, err := shard.DecodeRowsRequest(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	for name, b := range map[string][]byte{
		"short response":     resp[:6],
		"bad response magic": append([]byte("XXXX"), resp[4:]...),
		"truncated response": resp[:len(resp)-3],
	} {
		if _, err := shard.DecodeRowsResponse(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestShardFilesReassembleIndex is the shard file format's ground
// truth: cut shards with BuildShards (undirected and directed), load
// every file back, and reassemble each pair's answer by merging the
// owners' rows — it must equal the single-node index everywhere, and
// the per-file entry counts must sum to the whole index.
func TestShardFilesReassembleIndex(t *testing.T) {
	graphs := []struct {
		name  string
		build func(t *testing.T) *hopdb.Graph
	}{
		{"undirected", func(t *testing.T) *hopdb.Graph {
			g, err := gen.GLP(gen.DefaultGLP(50, 3, 7))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"directed", func(t *testing.T) *hopdb.Graph {
			g, err := gen.PowerLaw(gen.PowerLawParams{N: 45, Density: 3, Alpha: 2.2, Directed: true, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, gc := range graphs {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.build(t)
			idx, _, err := hopdb.Build(g, hopdb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 3, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := shard.LoadMap(filepath.Join(dir, shard.MapFile))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.TotalEntries() != m.TotalEntries() {
				t.Fatalf("map round trip changed totals: %d vs %d", loaded.TotalEntries(), m.TotalEntries())
			}
			if got, want := m.TotalEntries(), idx.Stats().Entries; got != want {
				t.Fatalf("shards hold %d entries, full index has %d", got, want)
			}

			hub, err := shard.Load(filepath.Join(dir, m.HubFile))
			if err != nil {
				t.Fatal(err)
			}
			if !hub.Hub || hub.Lo != 0 || hub.Hi != m.HubRanks {
				t.Fatalf("hub shard covers [%d,%d) hub=%v, want [0,%d) hub=true", hub.Lo, hub.Hi, hub.Hub, m.HubRanks)
			}
			leaves := make([]*shard.Shard, len(m.Shards))
			for i, sh := range m.Shards {
				if leaves[i], err = shard.Load(filepath.Join(dir, sh.File)); err != nil {
					t.Fatal(err)
				}
				if leaves[i].Hub || leaves[i].Lo != sh.Lo || leaves[i].Hi != sh.Hi {
					t.Fatalf("leaf %d covers [%d,%d) hub=%v, want [%d,%d)", i, leaves[i].Lo, leaves[i].Hi, leaves[i].Hub, sh.Lo, sh.Hi)
				}
			}
			rowOf := func(rank int32, in bool) []label.Entry {
				owner := shard.RowProvider(hub)
				if id := m.Owner(rank); id >= 0 {
					owner = leaves[id]
				}
				var row []label.Entry
				var ok bool
				if in {
					row, ok = owner.InRowRanked(rank)
				} else {
					row, ok = owner.OutRowRanked(rank)
				}
				if !ok {
					t.Fatalf("owner of rank %d does not serve it", rank)
				}
				return row
			}
			n := g.N()
			for s := int32(0); s < n; s++ {
				for u := int32(0); u < n; u++ {
					rs, ru := hub.Perm[s], hub.Perm[u]
					var got uint32
					if rs == ru {
						got = 0
					} else {
						got = label.MergeDistance(rowOf(rs, false), rowOf(ru, true), rs, ru)
					}
					want, _ := idx.Distance(s, u)
					if got != want {
						t.Fatalf("merged distance(%d,%d) = %d, full index says %d", s, u, got, want)
					}
				}
			}

			// Querier error semantics: a leaf answers out-of-range ids
			// with (Infinity, false, nil) and unowned pairs with an error.
			leaf := leaves[0]
			if d, ok, err := leaf.Lookup(-1, 0); d != wire.Infinity || ok || err != nil {
				t.Fatalf("Lookup(-1,0) = (%d,%v,%v), want (Infinity,false,nil)", d, ok, err)
			}
			if d, ok, err := leaf.Lookup(0, n+3); d != wire.Infinity || ok || err != nil {
				t.Fatalf("Lookup(0,n+3) = (%d,%v,%v), want (Infinity,false,nil)", d, ok, err)
			}
			// A pair of distinct hub-ranked vertices is unowned by every
			// leaf: the error must surface through Lookup.
			var hubVerts []int32
			for v := int32(0); v < n && len(hubVerts) < 2; v++ {
				if hub.Perm[v] < m.HubRanks {
					hubVerts = append(hubVerts, v)
				}
			}
			if _, _, err := leaf.Lookup(hubVerts[0], hubVerts[1]); err == nil ||
				!strings.Contains(err.Error(), "outside owned range") {
				t.Fatalf("Lookup of a hub pair on a leaf = %v, want an ownership error", err)
			}
		})
	}
}

// TestShardLoadAllocations asserts that a shard file is served in place:
// the file-sized read buffer is the only label-sized allocation Load
// makes, as for a whole v2 index (label.TestFlatLoadAllocations).
func TestShardLoadAllocations(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(3000, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{m.HubFile, m.Shards[0].File} {
		path := filepath.Join(dir, file)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// The fewest bytes over a few loads, so a stray background
		// allocation cannot fail the test.
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := shard.Load(path)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(s)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(st.Size()) + 8<<10; least > limit {
			t.Errorf("Load(%s) allocates %d bytes for a %d-byte file, want <= file size + 8 KiB", file, least, st.Size())
		}
	}
}
