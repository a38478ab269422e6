package hopdb

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/sp"
)

func TestQuickstartShape(t *testing.T) {
	b := NewGraphBuilder(false, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, st, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 {
		t.Error("no entries built")
	}
	if d, ok := idx.Distance(0, 2); !ok || d != 2 {
		t.Errorf("Distance(0,2) = (%d,%v), want (2,true)", d, ok)
	}
	if _, ok := idx.Distance(0, 99); ok {
		t.Error("out-of-range query reported reachable")
	}
}

func TestAllMethodsThroughFacade(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(400, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]uint32, g.N())
	sp.BFSFrom(g, 5, truth)
	for _, opt := range []Options{
		{Method: Hybrid},
		{Method: Doubling},
		{Method: Stepping},
		{Method: Hybrid, External: true},
	} {
		opt.TempDir = t.TempDir()
		idx, _, err := Build(g, opt)
		if err != nil {
			t.Fatalf("%v external=%v: %v", opt.Method, opt.External, err)
		}
		for u := int32(0); u < g.N(); u += 17 {
			got, _ := idx.Distance(5, u)
			if got != truth[u] {
				t.Fatalf("%v: Distance(5,%d) = %d, want %d", opt.Method, u, got, truth[u])
			}
		}
	}
}

func TestPathReconstruction(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g0, err := gen.ER(50, 140, true, 3)
		if err != nil {
			t.Fatal(err)
		}
		g := g0
		if weighted {
			g, err = gen.WithRandomWeights(g0, 6, 4)
			if err != nil {
				t.Fatal(err)
			}
		}
		idx, _, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := int32(0); s < g.N(); s += 7 {
			for u := int32(0); u < g.N(); u += 9 {
				d, ok := idx.Distance(s, u)
				path, errP := idx.Path(s, u)
				if ok != (errP == nil) {
					t.Fatalf("reachability disagreement at (%d,%d): %v", s, u, errP)
				}
				if !ok {
					if !errors.Is(errP, ErrUnreachable) {
						t.Fatalf("unreachable (%d,%d) returned %v, want ErrUnreachable", s, u, errP)
					}
					continue
				}
				if path[0] != s || path[len(path)-1] != u {
					t.Fatalf("path endpoints wrong: %v for (%d,%d)", path, s, u)
				}
				length, err := idx.PathLength(path)
				if err != nil {
					t.Fatalf("invalid path %v: %v", path, err)
				}
				if length != d {
					t.Fatalf("path length %d != distance %d for (%d,%d)", length, d, s, u)
				}
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(300, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded := q.(*Index)
	for s := int32(0); s < g.N(); s += 13 {
		for u := int32(0); u < g.N(); u += 17 {
			a, _ := idx.Distance(s, u)
			b, _ := loaded.Distance(s, u)
			if a != b {
				t.Fatalf("loaded index differs at (%d,%d): %d vs %d", s, u, a, b)
			}
		}
	}
	// Path needs the graph back.
	if _, err := loaded.Path(0, 1); !errors.Is(err, ErrNoGraph) {
		t.Errorf("Path without graph returned %v, want ErrNoGraph", err)
	}
	loaded.AttachGraph(g)
	if _, err := loaded.Path(0, 1); err != nil {
		t.Errorf("Path after AttachGraph failed: %v", err)
	}
}

func TestDiskIndexThroughFacade(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(300, 3, 13))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path, WithDisk(DiskOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	d := Disk(q)
	for s := int32(0); s < g.N(); s += 11 {
		for u := int32(0); u < g.N(); u += 19 {
			a, _ := idx.Distance(s, u)
			b, err := d.Distance(s, u)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("disk index differs at (%d,%d): %d vs %d", s, u, a, b)
			}
		}
	}
	if d.IOs() == 0 {
		t.Error("disk queries reported no I/O")
	}
}

func TestBitParallelThroughFacade(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(400, 4, 15))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]uint32, g.N())
	sp.BFSFrom(g, 2, truth)
	if err := idx.EnableBitParallel(0); err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < g.N(); u += 7 {
		got, _ := idx.Distance(2, u)
		if got != truth[u] {
			t.Fatalf("bit-parallel facade: Distance(2,%d) = %d, want %d", u, got, truth[u])
		}
	}
	// Directed graphs are rejected.
	dg, err := gen.Path(5, true)
	if err != nil {
		t.Fatal(err)
	}
	didx, _, err := Build(dg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := didx.EnableBitParallel(0); err == nil {
		t.Error("directed bit-parallel accepted")
	}
}

func TestFacadeStats(t *testing.T) {
	g, err := gen.Star(30)
	if err != nil {
		t.Fatal(err)
	}
	idx, st, err := Build(g, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if idx.N() != 30 || idx.Entries() != 29 {
		t.Errorf("star stats: n=%d entries=%d", idx.N(), idx.Entries())
	}
	if idx.AvgLabel() <= 0 || idx.SizeBytes() != 29*8 {
		t.Errorf("avg=%v size=%d", idx.AvgLabel(), idx.SizeBytes())
	}
	if st.Iterations == 0 || len(st.PerIteration) != st.Iterations {
		t.Errorf("iteration stats: %d rows for %d iterations", len(st.PerIteration), st.Iterations)
	}
}

func TestDistanceBatch(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(400, 4, 19))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []QueryPair
	for s := int32(0); s < g.N(); s += 11 {
		for u := int32(0); u < g.N(); u += 13 {
			pairs = append(pairs, QueryPair{S: s, T: u})
		}
	}
	serial := idx.DistanceBatch(pairs, 1)
	for _, workers := range []int{2, 4, 16} {
		par := idx.DistanceBatch(pairs, workers)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result %d differs: %d vs %d", workers, i, par[i], serial[i])
			}
		}
	}
	// Spot-check against Distance.
	for i, p := range pairs[:20] {
		d, _ := idx.Distance(p.S, p.T)
		if serial[i] != d {
			t.Fatalf("batch result differs from Distance at %d", i)
		}
	}
	if out := idx.DistanceBatch(nil, 4); len(out) != 0 {
		t.Error("empty batch should return empty results")
	}
}
