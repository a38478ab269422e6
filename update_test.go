package hopdb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	hopdb "repro"
	"repro/internal/gen"
	"repro/internal/sp"
)

// saveTestIndex builds and saves an index for g, returning the path.
func saveTestIndex(t *testing.T, g *hopdb.Graph) string {
	t.Helper()
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dyn.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenWithUpdatesValidation(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(40, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := saveTestIndex(t, g)
	cases := []struct {
		name string
		path string
		opts []hopdb.OpenOption
	}{
		{"updates without graph", path, []hopdb.OpenOption{hopdb.WithUpdates(hopdb.UpdateOptions{})}},
		{"updates+mmap", path, []hopdb.OpenOption{hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}), hopdb.WithMmap()}},
		{"updates+disk", path, []hopdb.OpenOption{hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}), hopdb.WithDisk(hopdb.DiskOptions{})}},
		{"updates+bitparallel", path, []hopdb.OpenOption{hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}), hopdb.WithBitParallel(8)}},
		{"updates+remote", "", []hopdb.OpenOption{hopdb.WithRemote("http://x"), hopdb.WithUpdates(hopdb.UpdateOptions{})}},
	}
	for _, c := range cases {
		if q, err := hopdb.Open(c.path, c.opts...); err == nil {
			q.Close()
			t.Errorf("%s: Open succeeded, want error", c.name)
		}
	}

	// The happy path: Querier + Updatable over heap labels, scalar kernel.
	q, err := hopdb.Open(path, hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if st := q.Stats(); st.Backend != hopdb.BackendHeap || st.Kernel != hopdb.KernelScalar {
		t.Errorf("Stats() backend/kernel = %q/%q, want %q/%q", st.Backend, st.Kernel, hopdb.BackendHeap, hopdb.KernelScalar)
	}
	// The accelerators are read-only: enabling one on an updatable index
	// fails instead of publishing a kernel the next update would stale.
	acc := q.(interface {
		EnableCompact() error
		EnableBitParallel(int) error
	})
	if err := acc.EnableCompact(); err == nil {
		t.Error("EnableCompact on an updatable index succeeded, want error")
	}
	if err := acc.EnableBitParallel(8); err == nil {
		t.Error("EnableBitParallel on an updatable index succeeded, want error")
	}
	if st := q.Stats(); st.Kernel != hopdb.KernelScalar {
		t.Errorf("after refused accelerators Stats().Kernel = %q, want %q", st.Kernel, hopdb.KernelScalar)
	}
	u, ok := q.(hopdb.Updatable)
	if !ok {
		t.Fatal("WithUpdates querier does not implement Updatable")
	}
	if err := u.DeleteEdge(0, 0); !errors.Is(err, hopdb.ErrSelfLoop) {
		t.Errorf("self-loop delete: %v, want ErrSelfLoop", err)
	}

	// A graph that does not match the index is rejected up front.
	small, err := gen.GLP(gen.DefaultGLP(30, 3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if q, err := hopdb.Open(path, hopdb.WithGraph(small), hopdb.WithUpdates(hopdb.UpdateOptions{})); err == nil {
		q.Close()
		t.Error("mismatched graph accepted")
	}
}

func TestParseEdgeDelta(t *testing.T) {
	ops, err := hopdb.ParseEdgeDelta(strings.NewReader(`
# a comment
+ 1 2
+ 3 4 7   % trailing comment
- 5 6
`))
	if err != nil {
		t.Fatal(err)
	}
	want := []hopdb.EdgeOp{
		{Op: hopdb.OpInsert, U: 1, V: 2},
		{Op: hopdb.OpInsert, U: 3, V: 4, W: 7},
		{Op: hopdb.OpDelete, U: 5, V: 6},
	}
	if len(ops) != len(want) {
		t.Fatalf("parsed %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
	for _, bad := range []string{"* 1 2", "+ 1", "- 1 2 3", "+ x 2", "+ 1 2 y"} {
		if _, err := hopdb.ParseEdgeDelta(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseEdgeDelta(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseEdgeDelta feeds arbitrary text to the delta parser, which
// reads untrusted input (hopdb-update -delta, and stdin). It must never
// panic; every op it accepts must be an insert or a delete; and
// rendering the accepted ops back as delta text must parse to the same
// ops.
func FuzzParseEdgeDelta(f *testing.F) {
	for _, seed := range []string{
		"+ 1 2\n+ 3 4 7\n- 5 6\n",
		"# a comment\n% another\n+ 1 2 # trailing\n- 3 4 % trailing\n",
		"\n\n   \n\t\n+ 0 1\n\n",
		"+ 1 2 3 4\n",
		"- 1 2 3 4 5\n",
		"+ a b\n",
		"- 1 x\n",
		"+ 1 2 w\n",
		"+ 2147483648 1\n",
		"- -2147483649 0\n",
		"+ 1 2 2147483647\n",
		"+ 1 2" + strings.Repeat(" ", 1<<20) + "\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ops, err := hopdb.ParseEdgeDelta(strings.NewReader(text))
		if err != nil {
			return
		}
		var b strings.Builder
		for _, op := range ops {
			switch op.Op {
			case hopdb.OpInsert:
				fmt.Fprintf(&b, "+ %d %d %d\n", op.U, op.V, op.W)
			case hopdb.OpDelete:
				if op.W != 0 {
					t.Fatalf("delete op carries weight %d", op.W)
				}
				fmt.Fprintf(&b, "- %d %d\n", op.U, op.V)
			default:
				t.Fatalf("accepted op %+v, want %q or %q", op, hopdb.OpInsert, hopdb.OpDelete)
			}
		}
		again, err := hopdb.ParseEdgeDelta(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-rendered ops do not parse: %v\n%s", err, b.String())
		}
		if !slices.Equal(again, ops) {
			t.Fatalf("round trip changed the ops: %+v, then %+v", ops, again)
		}
	})
}

// TestUpdateConcurrentReaders hammers Distance and DistanceBatchInto
// from several goroutines while a writer streams edge updates, under
// -race in CI. Ground truth is precomputed per update epoch; every
// single answer must match SOME epoch's truth, and — the no-torn-reads
// assertion — every batch must match exactly ONE epoch's whole truth
// vector, since a batch is answered from a single published epoch.
func TestUpdateConcurrentReaders(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(150, 3, 77))
	if err != nil {
		t.Fatal(err)
	}
	path := saveTestIndex(t, g)
	q, err := hopdb.Open(path, hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	u := q.(hopdb.Updatable)

	// Script a sequence of effective ops against a mirror of the edge
	// set, recording the mutated graph of every epoch.
	type edge struct{ a, b int32 }
	canon := func(a, b int32) edge {
		if a > b {
			a, b = b, a
		}
		return edge{a, b}
	}
	edges := map[edge]bool{}
	var edgeList []edge
	n := g.N()
	for a := int32(0); a < n; a++ {
		for _, b := range g.OutNeighbors(a) {
			k := canon(a, b)
			if !edges[k] {
				edges[k] = true
				edgeList = append(edgeList, k)
			}
		}
	}
	rng := rand.New(rand.NewSource(123))
	const epochs = 20
	type op struct {
		insert bool
		e      edge
	}
	var script []op
	graphs := []*hopdb.Graph{g}
	for len(script) < epochs {
		if rng.Intn(100) < 60 {
			a, b := rng.Int31n(n), rng.Int31n(n)
			k := canon(a, b)
			if a == b || edges[k] {
				continue
			}
			edges[k] = true
			edgeList = append(edgeList, k)
			script = append(script, op{insert: true, e: k})
		} else {
			k := edgeList[rng.Intn(len(edgeList))]
			if !edges[k] {
				continue
			}
			delete(edges, k)
			script = append(script, op{insert: false, e: k})
		}
		b := hopdb.NewGraphBuilder(false, false)
		b.Grow(n)
		for k, alive := range edges {
			if alive {
				b.AddEdge(k.a, k.b, 1)
			}
		}
		mg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, mg)
	}

	// Probe pairs and the per-epoch truth vectors.
	const probes = 48
	pairs := make([]hopdb.QueryPair, probes)
	for i := range pairs {
		pairs[i] = hopdb.QueryPair{S: rng.Int31n(n), T: rng.Int31n(n)}
	}
	truth := make([][]uint32, len(graphs))
	for e, mg := range graphs {
		truth[e] = make([]uint32, probes)
		dist := make([]uint32, n)
		for i, p := range pairs {
			sp.BFSFrom(mg, p.S, dist)
			truth[e][i] = dist[p.T]
		}
	}
	allowed := make([]map[uint32]bool, probes)
	for i := range allowed {
		allowed[i] = map[uint32]bool{}
		for e := range truth {
			allowed[i][truth[e][i]] = true
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan string, 8)
	report := func(msg string) {
		select {
		case errCh <- msg:
		default:
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			results := make([]uint32, probes)
			for !stop.Load() {
				if rng.Intn(2) == 0 {
					i := rng.Intn(probes)
					d, _ := q.Distance(pairs[i].S, pairs[i].T)
					if !allowed[i][d] {
						report("single answer matches no epoch")
						return
					}
				} else {
					out := q.DistanceBatchInto(results, pairs, 3)
					matched := false
					for e := range truth {
						same := true
						for i := range out {
							if out[i] != truth[e][i] {
								same = false
								break
							}
						}
						if same {
							matched = true
							break
						}
					}
					if !matched {
						report("torn batch: results match no single epoch")
						return
					}
				}
			}
		}(int64(w) + 1000)
	}

	// The writer streams the scripted updates while readers run.
	for _, o := range script {
		var err error
		if o.insert {
			err = u.InsertEdge(o.e.a, o.e.b, 1)
		} else {
			err = u.DeleteEdge(o.e.a, o.e.b)
		}
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("writer: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}

	// After the stream drains, the index must answer the final epoch
	// exactly.
	final := truth[len(truth)-1]
	out := q.DistanceBatchInto(make([]uint32, probes), pairs, 4)
	for i := range out {
		if out[i] != final[i] {
			t.Fatalf("final state: pair %d = %d, want %d", i, out[i], final[i])
		}
	}
	if st := u.UpdateStats(); st.Epoch != epochs {
		t.Fatalf("epoch = %d, want %d", st.Epoch, epochs)
	}
}

// TestUpdatableSaveReopen verifies persistence of patched labels: after
// online updates, Save produces a file whose heap and mmap reopenings
// answer the mutated graph exactly.
func TestUpdatableSaveReopen(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(80, 3, 55))
	if err != nil {
		t.Fatal(err)
	}
	path := saveTestIndex(t, g)
	q, err := hopdb.Open(path, hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	u := q.(hopdb.Updatable)

	// Mutate: bridge vertex 0 to the two highest-numbered vertices and
	// drop one existing edge.
	n := g.N()
	if _, err := hopdb.ApplyEdgeOps(u, []hopdb.EdgeOp{
		{Op: hopdb.OpInsert, U: 0, V: n - 1},
		{Op: hopdb.OpInsert, U: 0, V: n - 2},
	}); err != nil {
		t.Fatal(err)
	}
	var deleted hopdb.QueryPair
	for a := int32(0); a < n && deleted == (hopdb.QueryPair{}); a++ {
		for _, b := range g.OutNeighbors(a) {
			if a == 0 || b == 0 {
				continue
			}
			deleted = hopdb.QueryPair{S: a, T: b}
			break
		}
	}
	if err := u.DeleteEdge(deleted.S, deleted.T); err != nil {
		t.Fatal(err)
	}

	// Rebuild the mutated graph for ground truth.
	b := hopdb.NewGraphBuilder(false, false)
	b.Grow(n)
	for a := int32(0); a < n; a++ {
		for _, v := range g.OutNeighbors(a) {
			if a > v || (a == deleted.S && v == deleted.T) || (a == deleted.T && v == deleted.S) {
				continue
			}
			b.AddEdge(a, v, 1)
		}
	}
	b.AddEdge(0, n-1, 1)
	b.AddEdge(0, n-2, 1)
	mutated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	truth := sp.AllPairs(mutated)

	patched := filepath.Join(t.TempDir(), "patched.idx")
	if err := u.Save(patched); err != nil {
		t.Fatal(err)
	}
	for _, be := range []struct {
		name string
		opts []hopdb.OpenOption
	}{
		{"heap", nil},
		{"mmap", []hopdb.OpenOption{hopdb.WithMmap()}},
	} {
		t.Run(be.name, func(t *testing.T) {
			rq, err := hopdb.Open(patched, be.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer rq.Close()
			for s := int32(0); s < n; s++ {
				for v := int32(0); v < n; v++ {
					got, _ := rq.Distance(s, v)
					if got != truth[s][v] {
						t.Fatalf("reopened %s: Distance(%d,%d) = %d, want %d", be.name, s, v, got, truth[s][v])
					}
				}
			}
		})
	}
}
