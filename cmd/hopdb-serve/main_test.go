package main

import (
	"path/filepath"
	"testing"

	hopdb "repro"
	"repro/internal/gen"
	"repro/internal/shard"
)

// TestCheckShardMapDirection pins that -shard-map refuses a shard file
// from another build of the same vertex count: the undirected and
// directed builds cut identical rank ranges, so only the direction and
// weighting checks tell them apart.
func TestCheckShardMapDirection(t *testing.T) {
	cut := func(directed bool) string {
		g, err := gen.PowerLaw(gen.PowerLawParams{N: 200, Density: 3, Alpha: 2.2, Directed: directed, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 2, Dir: dir}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	ddir, udir := cut(true), cut(false)
	dmap, umap := filepath.Join(ddir, shard.MapFile), filepath.Join(udir, shard.MapFile)
	m, err := shard.LoadMap(dmap)
	if err != nil {
		t.Fatal(err)
	}
	m.Weighted = !m.Weighted
	wmap := filepath.Join(t.TempDir(), shard.MapFile)
	if err := m.Save(wmap); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, file, mapPath string
		ok                  bool
	}{
		{"directed leaf", filepath.Join(ddir, "leaf1.sidx"), dmap, true},
		{"undirected hub", filepath.Join(udir, "hub.sidx"), umap, true},
		{"undirected leaf, directed map", filepath.Join(udir, "leaf1.sidx"), dmap, false},
		{"undirected hub, directed map", filepath.Join(udir, "hub.sidx"), dmap, false},
		{"directed hub, undirected map", filepath.Join(ddir, "hub.sidx"), umap, false},
		{"weighting differs", filepath.Join(ddir, "hub.sidx"), wmap, false},
	} {
		q, err := hopdb.OpenShard(c.file)
		if err != nil {
			t.Fatal(err)
		}
		err = checkShardMap(q, c.mapPath)
		q.Close()
		if (err == nil) != c.ok {
			t.Errorf("%s: checkShardMap error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
