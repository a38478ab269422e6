// Web graph example: directed distance querying over a power-law link
// graph (the structure of the paper's wikiEng/Baidu datasets). Directed
// graphs get separate in- and out-labels, queries respect edge direction,
// and the index is persisted and re-opened from disk to demonstrate the
// paper's disk-resident querying mode.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	hopdb "repro"
	"repro/internal/gen"
)

func main() {
	const n = 15000
	g, err := gen.PowerLaw(gen.PowerLawParams{
		N: n, Density: 6, Alpha: 2.2, Directed: true, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web graph: %v\n", g)

	// Directed graphs default to the paper's in*out degree-product
	// ranking.
	idx, stats, err := hopdb.Build(g, hopdb.Options{Method: hopdb.Hybrid})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d entries in %d iterations, %.1f per vertex\n",
		stats.Entries, stats.Iterations, idx.AvgLabel())

	// Directionality: hops from a page vs hops back to it.
	rng := rand.New(rand.NewSource(3))
	shown := 0
	for shown < 5 {
		s, t := rng.Int31n(n), rng.Int31n(n)
		fwd, okF := idx.Distance(s, t)
		back, okB := idx.Distance(t, s)
		if !okF && !okB {
			continue
		}
		fmtDist := func(d uint32, ok bool) string {
			if !ok {
				return "unreachable"
			}
			return fmt.Sprintf("%d", d)
		}
		fmt.Printf("page %5d -> %5d: %s clicks; reverse: %s\n",
			s, t, fmtDist(fwd, okF), fmtDist(back, okB))
		shown++
	}

	// Save, then serve that same file from disk with block I/O
	// accounting: the mode that lets indexes larger than RAM serve
	// queries. hopdb.Open hands back the same Querier contract the
	// in-memory index satisfies, so the two are drop-in interchangeable.
	dir, err := os.MkdirTemp("", "hopdb-web-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	idxPath := filepath.Join(dir, "web.idx")
	if err := idx.Save(idxPath); err != nil {
		log.Fatal(err)
	}
	dq, err := hopdb.Open(idxPath, hopdb.WithDisk(hopdb.DiskOptions{CacheLabels: 64}))
	if err != nil {
		log.Fatal(err)
	}
	defer dq.Close()
	const q = 1000
	pairs := make([]hopdb.QueryPair, q)
	for i := range pairs {
		pairs[i] = hopdb.QueryPair{S: rng.Int31n(n), T: rng.Int31n(n)}
	}
	// Both backends answer through the shared batch path.
	fromMem := idx.DistanceBatch(pairs, 4)
	fromDisk := dq.DistanceBatchInto(make([]uint32, q), pairs, 4)
	mismatches := 0
	for i := range pairs {
		if fromMem[i] != fromDisk[i] {
			mismatches++
		}
	}
	fmt.Printf("disk backend (%s): %d queries, %d mismatches, %.2f block reads/query\n",
		dq.Stats().Backend, q, mismatches, float64(hopdb.Disk(dq).IOs())/float64(q))
}
