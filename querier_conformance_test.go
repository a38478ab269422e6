package hopdb_test

// The Querier conformance suite: one table of graphs, one set of checks,
// run against every backend — heap, mmap, disk, bit-parallel, a heap
// index opened for updates, and the HTTP client talking to a live server. The paper's claim is that the
// same 2-hop label index answers exact queries in every deployment
// regime; this suite pins the repo to that claim, asserting identical
// answers and identical Infinity/ok semantics everywhere.

import (
	"encoding/binary"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hopdb "repro"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sp"
)

// confGraph is one row of the conformance table.
type confGraph struct {
	name     string
	directed bool
	weighted bool
	build    func(t *testing.T) *hopdb.Graph
}

func confGraphs() []confGraph {
	return []confGraph{
		{
			// Hand-built components: a path, a separate edge, and an
			// isolated vertex, so unreachable pairs definitely exist.
			name: "undirected-components",
			build: func(t *testing.T) *hopdb.Graph {
				b := hopdb.NewGraphBuilder(false, false)
				b.AddEdge(0, 1, 1)
				b.AddEdge(1, 2, 1)
				b.AddEdge(2, 3, 1)
				b.AddEdge(4, 5, 1)
				b.Grow(7) // vertex 6 is isolated
				g, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		},
		{
			name: "undirected-scalefree",
			build: func(t *testing.T) *hopdb.Graph {
				g, err := gen.GLP(gen.DefaultGLP(60, 3, 41))
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		},
		{
			name:     "directed-powerlaw",
			directed: true,
			build: func(t *testing.T) *hopdb.Graph {
				g, err := gen.PowerLaw(gen.PowerLawParams{
					N: 50, Density: 3, Alpha: 2.2, Directed: true, Seed: 43,
				})
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		},
		{
			name:     "undirected-weighted",
			weighted: true,
			build: func(t *testing.T) *hopdb.Graph {
				g0, err := gen.ER(40, 90, false, 45)
				if err != nil {
					t.Fatal(err)
				}
				g, err := gen.WithRandomWeights(g0, 9, 45)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		},
	}
}

// confBackend is one opened backend under test plus its expected kind
// and (when non-empty) the kernel its Stats must report. graph is set
// when the backend was opened WithGraph, so Path must work too.
type confBackend struct {
	name    string
	kind    hopdb.Backend
	kernel  hopdb.Kernel
	querier hopdb.Querier
	graph   *hopdb.Graph
}

// openBackends builds the index for g once and opens it through every
// backend. The bit-parallel backend only exists for undirected
// unweighted graphs (the paper's Section 6 restriction).
func openBackends(t *testing.T, g *hopdb.Graph, gc confGraph) []confBackend {
	t.Helper()
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "conf.idx")
	compactPath := filepath.Join(dir, "conf.cidx")
	if err := idx.Save(idxPath); err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveCompact(compactPath); err != nil {
		t.Fatal(err)
	}
	// The server serves idx twice: as "default" (the flat /v1 routes)
	// and as the named dataset "conf" (/v1/conf/*) — the remote backend
	// must answer identically through both spellings.
	srv := server.New(idx, server.Config{Workers: 4})
	if err := srv.Attach("conf", idx, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	open := func(name string, kind hopdb.Backend, kernel hopdb.Kernel, path string, opts ...hopdb.OpenOption) confBackend {
		q, err := hopdb.Open(path, opts...)
		if err != nil {
			t.Fatalf("opening %s backend: %v", name, err)
		}
		t.Cleanup(func() { q.Close() })
		return confBackend{name: name, kind: kind, kernel: kernel, querier: q}
	}
	// The conformance graphs are all encodable (small distances), so heap
	// opens — including the one behind the remote server — auto-enable the
	// compact kernel; mmap stays scalar unless EnableCompact is called on
	// the opened *Index.
	mmapCompact := open("mmap-compact", hopdb.BackendMmap, hopdb.KernelCompact, idxPath, hopdb.WithMmap())
	if err := mmapCompact.querier.(*hopdb.Index).EnableCompact(); err != nil {
		t.Fatalf("EnableCompact on the mmap backend: %v", err)
	}
	backends := []confBackend{
		open("heap", hopdb.BackendHeap, hopdb.KernelCompact, idxPath),
		open("mmap", hopdb.BackendMmap, hopdb.KernelScalar, idxPath, hopdb.WithMmap()),
		mmapCompact,
		open("compact-file", hopdb.BackendHeap, hopdb.KernelCompact, compactPath),
		open("disk", hopdb.BackendDisk, hopdb.KernelScalar, idxPath, hopdb.WithDisk(hopdb.DiskOptions{CacheLabels: 16})),
		open("remote", hopdb.BackendRemote, hopdb.KernelCompact, "", hopdb.WithRemote(ts.URL)),
		open("remote-dataset", hopdb.BackendRemote, hopdb.KernelCompact, "", hopdb.WithRemote(ts.URL), hopdb.WithDataset("conf")),
	}
	// An index opened for updates, before any mutation: the same heap
	// Index on the scalar kernel, with Updatable on top.
	updates := open("heap-updates", hopdb.BackendHeap, hopdb.KernelScalar, idxPath,
		hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
	updates.graph = g
	backends = append(backends, updates)
	if !gc.directed && !gc.weighted {
		bp := open("bitparallel", hopdb.BackendHeap, hopdb.KernelBitParallel, idxPath,
			hopdb.WithGraph(g), hopdb.WithBitParallel(8))
		bp.graph = g
		backends = append(backends, bp)
	}
	// The sharded deployment: rank shards behind a scatter-gather
	// router, reached through the same remote client. Byte-identical
	// answers here are the acceptance criterion for sharded serving.
	backends = append(backends, confBackend{
		name: "sharded", kind: hopdb.BackendRemote, querier: openSharded(t, g),
	})
	return backends
}

// openSharded stands up the full sharded serving stack for g — three
// leaf shards plus a hub tier built through the external-memory
// pipeline, one HTTP server per leaf, and a scatter-gather router
// fronting them with the hub router-resident — and returns a remote
// client opened against the router.
func openSharded(t *testing.T, g *hopdb.Graph) hopdb.Querier {
	t.Helper()
	dir := t.TempDir()
	m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, sh := range m.Shards {
		leaf, err := hopdb.OpenShard(filepath.Join(dir, sh.File))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { leaf.Close() })
		srv := server.New(leaf, server.Config{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	hub, err := shard.Load(filepath.Join(dir, m.HubFile))
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewPool(urls, nil, time.Hour)
	pool.Probe()
	rt, err := cluster.NewRouter(pool, cluster.RouterConfig{ShardMap: m, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	q, err := hopdb.Open("", hopdb.WithRemote(rts.URL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// TestQuerierConformance runs every backend over every graph and demands
// byte-identical answers: same distances, same Infinity values, same ok
// flags, for single queries and batches (serial and parallel, through a
// reused results buffer).
func TestQuerierConformance(t *testing.T) {
	for _, gc := range confGraphs() {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.build(t)
			truth := sp.AllPairs(g)
			n := g.N()

			// The query set: all pairs, plus out-of-range ids on both
			// sides. want[i] is the reference answer for pairs[i].
			var pairs []hopdb.QueryPair
			var want []uint32
			for s := int32(0); s < n; s++ {
				for u := int32(0); u < n; u++ {
					pairs = append(pairs, hopdb.QueryPair{S: s, T: u})
					want = append(want, truth[s][u])
				}
			}
			for _, p := range []hopdb.QueryPair{{S: -1, T: 0}, {S: 0, T: -2}, {S: n, T: 0}, {S: 0, T: n + 5}} {
				pairs = append(pairs, p)
				want = append(want, hopdb.Infinity)
			}

			for _, be := range openBackends(t, g, gc) {
				t.Run(be.name, func(t *testing.T) {
					q := be.querier
					if q.N() != n {
						t.Fatalf("N() = %d, want %d", q.N(), n)
					}
					st := q.Stats()
					if st.Backend != be.kind {
						t.Errorf("Stats().Backend = %q, want %q", st.Backend, be.kind)
					}
					if st.Vertices != n || st.Directed != gc.directed {
						t.Errorf("Stats() = %+v, want %d vertices, directed=%v", st, n, gc.directed)
					}
					if be.name == "bitparallel" && !st.BitParallel {
						t.Error("Stats().BitParallel = false on the bit-parallel backend")
					}
					if be.kernel != "" && st.Kernel != be.kernel {
						t.Errorf("Stats().Kernel = %q, want %q", st.Kernel, be.kernel)
					}

					// Every backend also exposes the error-reporting
					// extension the server relies on.
					lq, hasLookup := q.(hopdb.Lookuper)
					blq, hasBatchLookup := q.(hopdb.LookupBatcher)
					if !hasLookup || !hasBatchLookup {
						t.Fatalf("backend lacks Lookuper/LookupBatcher (%v/%v)", hasLookup, hasBatchLookup)
					}

					// Single queries: answer and ok semantics, with
					// Lookup agreeing and reporting no error.
					for i, p := range pairs {
						d, ok := q.Distance(p.S, p.T)
						if d != want[i] {
							t.Fatalf("Distance(%d,%d) = %d, want %d", p.S, p.T, d, want[i])
						}
						if ok != (d != hopdb.Infinity) {
							t.Fatalf("Distance(%d,%d) ok=%v disagrees with d=%d", p.S, p.T, ok, d)
						}
						ld, lok, lerr := lq.Lookup(p.S, p.T)
						if lerr != nil || ld != d || lok != ok {
							t.Fatalf("Lookup(%d,%d) = (%d,%v,%v), want (%d,%v,nil)", p.S, p.T, ld, lok, lerr, d, ok)
						}
					}

					// Batches through one reused buffer, serial then
					// sharded, via both batch entry points: must equal
					// the singles exactly.
					results := make([]uint32, len(pairs))
					for _, workers := range []int{1, 4} {
						out := q.DistanceBatchInto(results, pairs, workers)
						if len(out) != len(pairs) {
							t.Fatalf("workers=%d: batch returned %d results for %d pairs", workers, len(out), len(pairs))
						}
						for i := range out {
							if out[i] != want[i] {
								t.Fatalf("workers=%d: batch[%d] (%d,%d) = %d, want %d",
									workers, i, pairs[i].S, pairs[i].T, out[i], want[i])
							}
						}
						lout, lerr := blq.LookupBatchInto(results, pairs, workers)
						if lerr != nil {
							t.Fatalf("workers=%d: LookupBatchInto error: %v", workers, lerr)
						}
						for i := range lout {
							if lout[i] != want[i] {
								t.Fatalf("workers=%d: lookup batch[%d] = %d, want %d", workers, i, lout[i], want[i])
							}
						}
					}

					// With a graph attached, every reconstructed path is
					// a walk over graph edges whose weight is the distance.
					if be.graph != nil {
						checkPaths(t, q.(hopdb.Pather), be.graph, pairs, want)
					}
				})
			}
		})
	}
}

// checkPaths asks p for the path of every pair: unreachable and
// out-of-range pairs must report ErrUnreachable, and every other path
// must run from s to t over edges of g with total weight want[i].
func checkPaths(t *testing.T, p hopdb.Pather, g *hopdb.Graph, pairs []hopdb.QueryPair, want []uint32) {
	t.Helper()
	for i, pr := range pairs {
		path, err := p.Path(pr.S, pr.T)
		if want[i] == hopdb.Infinity {
			if !errors.Is(err, hopdb.ErrUnreachable) {
				t.Fatalf("Path(%d,%d) = %v, %v, want ErrUnreachable", pr.S, pr.T, path, err)
			}
			continue
		}
		if err != nil || len(path) == 0 || path[0] != pr.S || path[len(path)-1] != pr.T {
			t.Fatalf("Path(%d,%d) = %v, %v", pr.S, pr.T, path, err)
		}
		var total uint32
		for j := 0; j+1 < len(path); j++ {
			w, ok := g.EdgeWeight(path[j], path[j+1])
			if !ok {
				t.Fatalf("Path(%d,%d) = %v: (%d,%d) is not an edge", pr.S, pr.T, path, path[j], path[j+1])
			}
			total += uint32(w)
		}
		if total != want[i] {
			t.Fatalf("Path(%d,%d) = %v weighs %d, want %d", pr.S, pr.T, path, total, want[i])
		}
	}
}

// TestQuerierConformanceBackendsAgree is the pairwise closure of the
// suite: beyond matching ground truth, every backend must match every
// other backend on a deterministic mixed workload (the acceptance
// criterion is "byte-identical answers", not just "correct answers").
func TestQuerierConformanceBackendsAgree(t *testing.T) {
	gc := confGraphs()[1] // scale-free undirected: all five backends exist
	g := gc.build(t)
	backends := openBackends(t, g, gc)
	n := g.N()
	var pairs []hopdb.QueryPair
	for i := int32(0); i < 500; i++ {
		pairs = append(pairs, hopdb.QueryPair{S: (i * 37) % n, T: (i*91 + 13) % n})
	}
	answers := make([][]uint32, len(backends))
	for i, be := range backends {
		answers[i] = be.querier.DistanceBatchInto(make([]uint32, len(pairs)), pairs, 3)
	}
	for i := 1; i < len(backends); i++ {
		for j := range pairs {
			if answers[i][j] != answers[0][j] {
				t.Fatalf("%s and %s disagree on (%d,%d): %d vs %d",
					backends[i].name, backends[0].name, pairs[j].S, pairs[j].T,
					answers[i][j], answers[0][j])
			}
		}
	}
}

// TestQuerierConformanceUpdated extends the suite to indexes mutated
// online: for every conformance graph, a WithUpdates index applies a
// deterministic mix of deletes and inserts, and then the live updatable
// index AND the patched file reopened through the heap and mmap
// backends must all answer the mutated graph's ground truth exactly —
// verifying that patched labels persist.
func TestQuerierConformanceUpdated(t *testing.T) {
	for _, gc := range confGraphs() {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.build(t)
			n := g.N()
			idx, _, err := hopdb.Build(g, hopdb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			idxPath := filepath.Join(dir, "upd.idx")
			if err := idx.Save(idxPath); err != nil {
				t.Fatal(err)
			}
			q, err := hopdb.Open(idxPath, hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { q.Close() })
			u := q.(hopdb.Updatable)

			// Mirror the edge set; mutate: delete the first and middle
			// edges, insert the first three non-edges found (weight 2 on
			// weighted graphs).
			type edge struct{ a, b int32 }
			canon := func(a, b int32) edge {
				if !gc.directed && a > b {
					a, b = b, a
				}
				return edge{a, b}
			}
			edges := map[edge]int32{}
			var list []edge
			for a := int32(0); a < n; a++ {
				ws := g.OutWeights(a)
				for i, b := range g.OutNeighbors(a) {
					if !gc.directed && a > b {
						continue
					}
					w := int32(1)
					if ws != nil {
						w = ws[i]
					}
					k := canon(a, b)
					if _, ok := edges[k]; !ok {
						list = append(list, k)
					}
					edges[k] = w
				}
			}
			var ops []hopdb.EdgeOp
			for _, k := range []edge{list[0], list[len(list)/2]} {
				ops = append(ops, hopdb.EdgeOp{Op: hopdb.OpDelete, U: k.a, V: k.b})
				delete(edges, k)
			}
			inserted := 0
			for a := int32(0); a < n && inserted < 3; a++ {
				for b := int32(0); b < n && inserted < 3; b++ {
					k := canon(a, b)
					if a == b {
						continue
					}
					if _, ok := edges[k]; ok {
						continue
					}
					w := int32(1)
					if gc.weighted {
						w = 2
					}
					ops = append(ops, hopdb.EdgeOp{Op: hopdb.OpInsert, U: k.a, V: k.b, W: w})
					edges[k] = w
					inserted++
				}
			}
			if applied, err := hopdb.ApplyEdgeOps(u, ops); err != nil {
				t.Fatalf("applied %d ops, then: %v", applied, err)
			}

			// Ground truth of the mutated graph.
			b := hopdb.NewGraphBuilder(gc.directed, gc.weighted)
			b.Grow(n)
			for k, w := range edges {
				b.AddEdge(k.a, k.b, w)
			}
			mutated, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			truth := sp.AllPairs(mutated)

			patched := filepath.Join(dir, "patched.idx")
			if err := u.Save(patched); err != nil {
				t.Fatal(err)
			}
			backends := []confBackend{
				{name: "dynamic", kind: hopdb.BackendHeap, querier: q},
			}
			open := func(name string, kind hopdb.Backend, opts ...hopdb.OpenOption) {
				rq, err := hopdb.Open(patched, opts...)
				if err != nil {
					t.Fatalf("reopening %s: %v", name, err)
				}
				t.Cleanup(func() { rq.Close() })
				backends = append(backends, confBackend{name: name, kind: kind, querier: rq})
			}
			open("heap-reopened", hopdb.BackendHeap)
			open("mmap-reopened", hopdb.BackendMmap, hopdb.WithMmap())

			var pairs []hopdb.QueryPair
			var want []uint32
			for s := int32(0); s < n; s++ {
				for v := int32(0); v < n; v++ {
					pairs = append(pairs, hopdb.QueryPair{S: s, T: v})
					want = append(want, truth[s][v])
				}
			}
			pairs = append(pairs, hopdb.QueryPair{S: -1, T: 0}, hopdb.QueryPair{S: 0, T: n + 3})
			want = append(want, hopdb.Infinity, hopdb.Infinity)
			for _, be := range backends {
				t.Run(be.name, func(t *testing.T) {
					if st := be.querier.Stats(); st.Backend != be.kind {
						t.Errorf("Stats().Backend = %q, want %q", st.Backend, be.kind)
					}
					for i, p := range pairs {
						if d, _ := be.querier.Distance(p.S, p.T); d != want[i] {
							t.Fatalf("Distance(%d,%d) = %d, want %d", p.S, p.T, d, want[i])
						}
					}
					out := be.querier.DistanceBatchInto(make([]uint32, len(pairs)), pairs, 3)
					for i := range out {
						if out[i] != want[i] {
							t.Fatalf("batch[%d] (%d,%d) = %d, want %d", i, pairs[i].S, pairs[i].T, out[i], want[i])
						}
					}
				})
			}
		})
	}
}

// TestOpenOptionValidation pins the Open misuse errors.
func TestOpenOptionValidation(t *testing.T) {
	gc := confGraphs()[0]
	g := gc.build(t)
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "v.idx")
	if err := idx.Save(idxPath); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		path string
		opts []hopdb.OpenOption
	}{
		{"disk+mmap", idxPath, []hopdb.OpenOption{hopdb.WithDisk(hopdb.DiskOptions{}), hopdb.WithMmap()}},
		{"disk+graph", idxPath, []hopdb.OpenOption{hopdb.WithDisk(hopdb.DiskOptions{}), hopdb.WithGraph(g)}},
		{"bitparallel without graph", idxPath, []hopdb.OpenOption{hopdb.WithBitParallel(8)}},
		{"missing file", filepath.Join(dir, "nope.idx"), nil},
	}
	for _, c := range cases {
		if q, err := hopdb.Open(c.path, c.opts...); err == nil {
			q.Close()
			t.Errorf("%s: Open succeeded, want error", c.name)
		}
	}
	// WithGraph enables path reconstruction through the Pather interface.
	q, err := hopdb.Open(idxPath, hopdb.WithGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	p, ok := q.(hopdb.Pather)
	if !ok {
		t.Fatal("heap backend with graph does not implement Pather")
	}
	path, err := p.Path(0, 3)
	if err != nil || len(path) != 4 {
		t.Fatalf("Path(0,3) = %v, %v", path, err)
	}
}

// TestOpenDiskRefusesBadImages feeds WithDisk files it must refuse at
// open, never at the first query: the retired HDDX format, corrupt v2
// images, and the v2 shapes a whole-index open does not serve.
func TestOpenDiskRefusesBadImages(t *testing.T) {
	// v2 builds a v2 preamble: header, optional range and perm, then
	// the out offsets.
	v2 := func(flags byte, n uint32, ext []uint32, offsets ...uint64) []byte {
		b := []byte{'H', 'D', 'X', '2', 2, flags, 0, 0}
		b = binary.LittleEndian.AppendUint32(b, n)
		b = binary.LittleEndian.AppendUint32(b, 0)
		for _, x := range ext {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
		for _, o := range offsets {
			b = binary.LittleEndian.AppendUint64(b, o)
		}
		return b
	}
	hddx := append([]byte{'H', 'D', 'D', 'X', 1, 0, 2, 0, 0, 0}, make([]byte, 40)...)
	binary.LittleEndian.PutUint64(hddx[18:], 1<<40) // offsets decrease
	g := confGraphs()[0].build(t)
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	compactPath := filepath.Join(dir, "g.cidx")
	if err := idx.SaveCompact(compactPath); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path string
		image      []byte
		want       string // in the error
	}{
		{"hddx", "", hddx, "HDDX files are no longer readable"},
		{"decreasing-offsets", "", append(v2(0, 2, nil, 0, 5, 1), make([]byte, 8)...), "offsets decrease"},
		{"perm-not-a-bijection", "", v2(4, 2, []uint32{0, 0}, 0, 0, 0), "not a permutation"},
		{"n-beyond-file", "", v2(0, 1<<31-1, nil), "truncated"},
		{"shard-range-image", "", v2(8, 2, []uint32{0, 2}, 0, 0, 0), "shard (rank-range) image"},
		{"compact-image", compactPath, nil, "compact (HDX3) image"},
	}
	for _, c := range cases {
		if c.path == "" {
			c.path = filepath.Join(dir, c.name)
			if err := os.WriteFile(c.path, c.image, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		q, err := hopdb.Open(c.path, hopdb.WithDisk(hopdb.DiskOptions{}))
		if err == nil {
			q.Distance(0, 1)
			q.Close()
			t.Errorf("%s: WithDisk opened it", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}
