// Command hopdb-update applies a textual edge-delta file to a saved
// index offline: it opens the index for online maintenance (the same
// engine hopdb-serve -updates runs), replays the delta, and writes the
// patched index back out — orders of magnitude cheaper than rebuilding
// when the delta is small relative to the graph.
//
// Usage:
//
//	hopdb-update -idx graph.idx -graph graph.txt -delta delta.txt -o patched.idx
//	hopdb-update ... -out-graph patched.txt   # also save the mutated edge list
//
// The delta format is line-oriented ('#'/'%' comments):
//
//	"+ u v"      insert edge (weight 1)
//	"+ u v w"    insert edge with weight w (weighted graphs)
//	"- u v"      delete edge
//
// The graph must be the one the index was built from: maintenance walks
// its adjacency. Exit codes: 1 operational failure, 2 usage error, 3
// malformed delta.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	hopdb "repro"
)

func main() {
	var (
		idxPath   = flag.String("idx", "", "index file built by hopdb-build")
		graphPath = flag.String("graph", "", "edge list the index was built from")
		directed  = flag.Bool("directed", false, "treat -graph edges as directed")
		weighted  = flag.Bool("weighted", false, "read -graph third column as weight")
		deltaPath = flag.String("delta", "", `edge-delta file ("-" = stdin)`)
		outPath   = flag.String("o", "", "output file for the patched index")
		outGraph  = flag.String("out-graph", "", "optional output file for the mutated edge list")
		staleFrac = flag.Float64("stale", 0, "dirty-vertex fraction beyond which a delete full-rebuilds (default 0.25)")
	)
	flag.Parse()
	if *idxPath == "" || *graphPath == "" || *deltaPath == "" || *outPath == "" {
		fmt.Fprintln(os.Stderr, "hopdb-update: -idx, -graph, -delta, and -o are required")
		flag.Usage()
		os.Exit(2)
	}

	g, err := hopdb.LoadEdgeList(*graphPath, *directed, *weighted)
	if err != nil {
		fail(err)
	}
	q, err := hopdb.Open(*idxPath, hopdb.WithGraph(g),
		hopdb.WithUpdates(hopdb.UpdateOptions{MaxStaleFraction: *staleFrac}))
	if err != nil {
		fail(err)
	}
	defer q.Close()
	u := q.(hopdb.Updatable)

	ops, err := readDelta(*deltaPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hopdb-update:", err)
		os.Exit(3)
	}

	applied, err := hopdb.ApplyEdgeOps(u, ops)
	if err != nil {
		fail(fmt.Errorf("applied %d/%d ops, then: %w", applied, len(ops), err))
	}
	st := u.UpdateStats()
	fmt.Printf("applied %d ops: %d inserts, %d deletes, %d no-ops (%d partial repairs, %d full rebuilds, staleness %.3f; overlay %d rows / %d entries, %d compactions)\n",
		applied, st.Inserts, st.Deletes, st.NoOps, st.PartialRepairs, st.FullRebuilds, st.Staleness,
		st.OverlayRows, st.OverlayEntries, st.Compactions)

	if err := u.Save(*outPath); err != nil {
		fail(err)
	}
	qs := q.Stats()
	fmt.Printf("saved %s: %d vertices, %d entries (%d bytes)\n", *outPath, qs.Vertices, qs.Entries, qs.SizeBytes)

	if *outGraph != "" {
		mutated, err := applyToGraph(g, ops, *directed, *weighted)
		if err != nil {
			fail(err)
		}
		if err := hopdb.SaveEdgeList(*outGraph, mutated); err != nil {
			fail(err)
		}
		fmt.Printf("saved mutated edge list %s (%d edges)\n", *outGraph, mutated.EdgeCount())
	}
}

// readDelta parses the delta file (or stdin for "-").
func readDelta(path string) ([]hopdb.EdgeOp, error) {
	if path == "-" {
		return hopdb.ParseEdgeDelta(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hopdb.ParseEdgeDelta(f)
}

// applyToGraph replays ops onto an edge multimap of g and rebuilds the
// mutated graph, so -out-graph matches what the patched index serves.
func applyToGraph(g *hopdb.Graph, ops []hopdb.EdgeOp, directed, weighted bool) (*hopdb.Graph, error) {
	type key struct{ u, v int32 }
	canon := func(u, v int32) key {
		if !directed && u > v {
			u, v = v, u
		}
		return key{u, v}
	}
	edges := map[key]int32{}
	for u := int32(0); u < g.N(); u++ {
		ws := g.OutWeights(u)
		for i, v := range g.OutNeighbors(u) {
			if !directed && u > v {
				continue
			}
			w := int32(1)
			if ws != nil {
				w = ws[i]
			}
			edges[canon(u, v)] = w
		}
	}
	for _, op := range ops {
		k := canon(op.U, op.V)
		switch op.Op {
		case hopdb.OpInsert:
			w := op.W
			if !weighted || w <= 0 {
				w = 1
			}
			if old, ok := edges[k]; !ok || w < old {
				edges[k] = w
			}
		case hopdb.OpDelete:
			delete(edges, k)
		default:
			return nil, fmt.Errorf("hopdb-update: unknown op %q", op.Op)
		}
	}
	b := hopdb.NewGraphBuilder(directed, weighted)
	b.Grow(g.N())
	for k, w := range edges {
		b.AddEdge(k.u, k.v, w)
	}
	return b.Build()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopdb-update:", err)
	code := 1
	if errors.Is(err, hopdb.ErrVertexRange) || errors.Is(err, hopdb.ErrSelfLoop) || errors.Is(err, hopdb.ErrNoEdge) {
		code = 3
	}
	os.Exit(code)
}
