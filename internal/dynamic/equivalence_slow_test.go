//go:build slow

package dynamic

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/label"
)

// TestRebuildEquivalence5kGLP is the acceptance benchmark-backed suite:
// 1,000 random edge mutations applied online to a 5,000-vertex GLP
// scale-free graph, then every pairwise distance compared against a
// from-scratch rebuild of the mutated graph, plus the performance claim —
// a single InsertEdge must complete at least 10x faster than full
// reconstruction. Run with -tags slow.
func TestRebuildEquivalence5kGLP(t *testing.T) {
	g, err := gen.GLP(gen.DefaultGLP(5000, 3, 4242))
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(t, g, Options{RebuildParallelism: runtime.GOMAXPROCS(0)})
	es := newEdgeSet(g)
	rng := rand.New(rand.NewSource(4242))

	// 1,000 mutations, ~80% inserts: the write mix of a growing social
	// graph. Time each insert so the speed claim is measured on live
	// operations, not a dedicated micro-run.
	var insertTimes []time.Duration
	n := es.n
	for i := 0; i < 1000; i++ {
		if rng.Intn(100) < 80 || len(es.keys) < 2 {
			inserted := false
			for try := 0; try < 80; try++ {
				u, v := rng.Int31n(n), rng.Int31n(n)
				if u == v || es.has(u, v) {
					continue
				}
				start := time.Now()
				if err := d.InsertEdge(u, v, 1); err != nil {
					t.Fatalf("op %d: insert (%d,%d): %v", i, u, v, err)
				}
				insertTimes = append(insertTimes, time.Since(start))
				es.put(u, v, 1)
				inserted = true
				break
			}
			if inserted {
				continue
			}
		}
		k := es.keys[rng.Intn(len(es.keys))]
		if err := d.DeleteEdge(k.u, k.v); err != nil {
			t.Fatalf("op %d: delete (%d,%d): %v", i, k.u, k.v, err)
		}
		es.remove(k.u, k.v)
	}
	if a := d.Anomalies(); a != 0 {
		t.Fatalf("%d maintenance anomalies", a)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("labels invalid: %v", err)
	}
	st := d.Stats()
	t.Logf("applied %d inserts, %d deletes (%d partial repairs, %d full rebuilds, staleness %.3f)",
		st.Inserts, st.Deletes, st.PartialRepairs, st.FullRebuilds, st.Staleness)

	// From-scratch rebuild of the mutated graph, timed for the speed
	// claim.
	mutated := es.build(t)
	rebuildStart := time.Now()
	x, _, err := core.Build(mutated, core.Options{})
	if err != nil {
		t.Fatalf("from-scratch rebuild: %v", err)
	}
	rebuildTime := time.Since(rebuildStart)
	rebuilt := label.Freeze(x)

	// Every pairwise distance must match, both directions of comparison
	// sharded across workers (25M pairs).
	f := d.Current()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errCh := make(chan string, workers)
	rows := int(n)
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for s := int32(lo); s < int32(hi); s++ {
				for u := int32(0); u < n; u++ {
					if got, want := f.Distance(s, u), rebuilt.Distance(s, u); got != want {
						select {
						case errCh <- fmtErr(s, u, got, want):
						default:
						}
						return
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}

	// Speed claim: the median live InsertEdge at least 10x faster than
	// full reconstruction. The median keeps a single GC pause or an
	// unusually hub-heavy insert from deciding the comparison.
	if len(insertTimes) == 0 {
		t.Fatal("no inserts were timed")
	}
	sort.Slice(insertTimes, func(i, j int) bool { return insertTimes[i] < insertTimes[j] })
	median := insertTimes[len(insertTimes)/2]
	t.Logf("median InsertEdge %v vs full rebuild %v (%.1fx)", median, rebuildTime, float64(rebuildTime)/float64(median))
	if rebuildTime < 10*median {
		t.Errorf("single InsertEdge (median %v) is not >=10x faster than full rebuild (%v)", median, rebuildTime)
	}
}

func fmtErr(s, u int32, got, want uint32) string {
	return fmt.Sprintf("Distance(%d,%d) = %d, rebuild says %d", s, u, got, want)
}
