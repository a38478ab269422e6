package hopdb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/label"
	"repro/internal/shard"
)

// TestFormatsRefusedByName pins which loader accepts which image: a
// whole index opens only as a whole index and a shard (range image)
// only as a shard, each refusal naming the right opener, and a file in
// the retired HSH1 shard format is refused by name everywhere. Opening
// a leaf as a whole index would otherwise answer Infinity for every
// pair it does not own.
func TestFormatsRefusedByName(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawParams{N: 60, Density: 3, Alpha: 2.2, Directed: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	x, _, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, "whole.idx")
	if err := x.Save(whole); err != nil {
		t.Fatal(err)
	}
	m, _, err := BuildShards(g, Options{}, ShardConfig{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hub, leaf := filepath.Join(dir, m.HubFile), filepath.Join(dir, m.Shards[0].File)
	old := filepath.Join(dir, "old.sidx")
	// An HSH1 header: magic, version 1, directed, n = 2, range [0, 2).
	if err := os.WriteFile(old, []byte("HSH1\x01\x01\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}

	closeOpened := func(c interface{ Close() error }, err error) error {
		if err == nil {
			c.Close()
		}
		return err
	}
	openers := map[string]func(string) error{
		"Open": func(p string) error { q, err := Open(p); return closeOpened(q, err) },
		"Open/mmap": func(p string) error {
			q, err := Open(p, WithMmap())
			return closeOpened(q, err)
		},
		"label.LoadFlatFile": func(p string) error { f, err := label.LoadFlatFile(p); return closeOpened(f, err) },
		"label.MmapFlat":     func(p string) error { f, err := label.MmapFlat(p); return closeOpened(f, err) },
		"OpenShard":          func(p string) error { q, err := OpenShard(p); return closeOpened(q, err) },
		"shard.Load":         func(p string) error { s, err := shard.Load(p); return closeOpened(s, err) },
	}
	const (
		asShard = "open it with hopdb.OpenShard or hopdb-serve -shard"
		asWhole = "not a shard image"
		retired = "HSH1 shard files are no longer readable; rebuild with hopdb-build -shards"
	)
	wholeOpeners := []string{"Open", "Open/mmap", "label.LoadFlatFile", "label.MmapFlat"}
	shardOpeners := []string{"OpenShard", "shard.Load"}
	type row struct{ opener, file, want string }
	var rows []row
	for _, o := range wholeOpeners {
		rows = append(rows, row{o, whole, ""}, row{o, leaf, asShard}, row{o, hub, asShard}, row{o, old, retired})
	}
	for _, o := range shardOpeners {
		rows = append(rows, row{o, leaf, ""}, row{o, hub, ""}, row{o, whole, asWhole}, row{o, old, retired})
	}
	for _, r := range rows {
		err := openers[r.opener](r.file)
		name := r.opener + "(" + filepath.Base(r.file) + ")"
		switch {
		case r.want == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case r.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", name, r.want)
		case r.want != "" && !strings.Contains(err.Error(), r.want):
			t.Errorf("%s: error %q does not say %q", name, err, r.want)
		}
	}
}
