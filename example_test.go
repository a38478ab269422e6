package hopdb_test

import (
	"fmt"
	"os"
	"path/filepath"

	hopdb "repro"
)

// Open is the single entry point for querying a saved index: the same
// file serves from the heap, memory-mapped, or (in its disk format) from
// disk blocks, all through the backend-agnostic Querier contract.
func Example_open() {
	b := hopdb.NewGraphBuilder(false, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 3, 1)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		panic(err)
	}

	dir, err := os.MkdirTemp("", "hopdb-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	idxPath := filepath.Join(dir, "g.idx")
	if err := idx.Save(idxPath); err != nil {
		panic(err)
	}

	// One file, three regimes, one contract, identical answers.
	backends := []struct {
		path string
		opts []hopdb.OpenOption
	}{
		{idxPath, nil},
		{idxPath, []hopdb.OpenOption{hopdb.WithMmap()}},
		{idxPath, []hopdb.OpenOption{hopdb.WithDisk(hopdb.DiskOptions{})}},
	}
	for _, be := range backends {
		q, err := hopdb.Open(be.path, be.opts...)
		if err != nil {
			panic(err)
		}
		d, ok := q.Distance(2, 3)
		fmt.Printf("%s: dist(2,3) = %d %v\n", q.Stats().Backend, d, ok)
		q.Close()
	}
	// Output:
	// heap: dist(2,3) = 3 true
	// mmap: dist(2,3) = 3 true
	// disk: dist(2,3) = 3 true
}

// Build an index over a small undirected graph and query it.
func ExampleBuild() {
	b := hopdb.NewGraphBuilder(false, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 3, 1)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	idx, stats, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("entries:", stats.Entries)
	d, ok := idx.Distance(2, 3)
	fmt.Println(d, ok)
	// Output:
	// entries: 4
	// 3 true
}

// Directed graphs answer queries per direction.
func ExampleIndex_Distance() {
	b := hopdb.NewGraphBuilder(true, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		panic(err)
	}
	d, ok := idx.Distance(0, 2)
	fmt.Println(d, ok)
	_, ok = idx.Distance(2, 0)
	fmt.Println(ok)
	// Output:
	// 2 true
	// false
}

// Shortest paths (not just distances) can be reconstructed.
func ExampleIndex_Path() {
	b := hopdb.NewGraphBuilder(false, true)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 5)
	b.AddEdge(0, 3, 1)
	b.AddEdge(3, 2, 1)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		panic(err)
	}
	path, err := idx.Path(0, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(path)
	// Output:
	// [0 3 2]
}
