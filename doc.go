// Package hopdb is a Go implementation of Hop-Doubling Label Indexing for
// point-to-point distance querying on scale-free networks (Jiang, Fu,
// Wong, Xu; PVLDB 7(12), 2014).
//
// It builds a 2-hop label index over a static directed or undirected,
// weighted or unweighted graph, and answers exact s-t distance queries by
// merging the two vertices' label lists. On scale-free graphs the index
// stays near-linear in the vertex count (O(h*|V|) for a small hub
// dimension h), making queries orders of magnitude faster than online
// bidirectional search while keeping the index far smaller than a
// distance table.
//
// # Quick start
//
//	b := hopdb.NewGraphBuilder(false, false) // undirected, unweighted
//	b.AddEdge(0, 1, 1)
//	b.AddEdge(1, 2, 1)
//	g, _ := b.Build()
//	idx, _, _ := hopdb.Build(g, hopdb.Options{})
//	d, ok := idx.Distance(0, 2) // 2, true
//
// # Construction methods
//
// Three schedules from the paper are available: Hop-Doubling (label joins
// against the full index, covering path hop lengths that double every two
// iterations), Hop-Stepping (joins against single edges, one hop per
// iteration, bounding candidate growth), and the Hybrid default (stepping
// for the first ten iterations, then doubling). All three produce correct
// indexes; they differ in construction cost.
//
// Set Options.External to build with the paper's I/O-efficient disk-based
// algorithm, which keeps label files on disk, joins them with sorted
// merge scans and block-nested loops under a configurable memory budget,
// and reports block I/O counts. The external builder produces exactly the
// same index as the in-memory one.
//
// # One Querier, every backend
//
// A saved index opens for querying through one entry point, Open, in
// whichever regime the deployment needs — every backend satisfies the
// same Querier contract and answers identical distances:
//
//	q, _ := hopdb.Open("g.idx")                                       // heap
//	q, _ := hopdb.Open("g.idx", hopdb.WithMmap())                     // memory-mapped, served in place
//	q, _ := hopdb.Open("g.idx", hopdb.WithDisk(hopdb.DiskOptions{}))  // disk-resident
//	q, _ := hopdb.Open("", hopdb.WithRemote("http://host:8080"))      // behind hopdb-serve
//
// WithGraph re-attaches the original graph (enabling Path via the Pather
// interface) and WithBitParallel enables the Section 6 acceleration.
//
// # Label storage
//
// Queries are served from a flat CSR representation (label.FlatIndex):
// one contiguous entries array per label side addressed by per-vertex
// offsets, frozen from the mutable slice-of-slices form when construction
// finishes. Index.Save writes that layout verbatim (the v2 format), so
// Open serves it in place from a single file-sized read, and
// Open(path, WithMmap()) serves it from the mapping itself: the payload
// is never copied, and a mapped index lives in the page cache with O(1)
// heap. Open(path, WithDisk(...)) serves the same file straight from
// disk, keeping only the perm and offset tables resident and reading the
// two label rows each query needs. Every in-memory index reads those
// arrays as the base of a label epoch (internal/dynamic);
// Open(path, WithGraph(g), WithUpdates(...)) returns the same Index with
// Updatable on top, whose edge updates publish copy-on-write successor
// epochs.
//
// # Beyond distances
//
// Index.Path reconstructs a shortest path (not just its length) by
// descending the distance field. For undirected unweighted graphs,
// Index.EnableBitParallel folds the top-ranked hub labels into the
// bit-parallel form of the paper's Section 6, accelerating queries.
// Package repro/client serves the same contract over HTTP from a
// hopdb-serve instance.
package hopdb
