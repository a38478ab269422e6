package hopdb

import (
	"fmt"

	"repro/internal/wire"
)

// Path reconstruction errors. They are shared wire-level sentinels so a
// remote client (package repro/client) returns the same values the
// in-process index does, and errors.Is works across backends.
var (
	// ErrNoGraph is returned by Path when the index has no attached
	// graph (e.g. freshly loaded from disk); see AttachGraph.
	ErrNoGraph = wire.ErrNoGraph
	// ErrUnreachable is returned by Path when t is not reachable from s.
	ErrUnreachable = wire.ErrUnreachable
)

// Path reconstructs one shortest path from s to t (inclusive of both
// endpoints) using the index plus the graph: from each vertex it steps
// to any out-neighbor that lies on a shortest path, verified with one
// distance query per neighbor. This is an extension beyond the paper,
// which reports distances only; the cost is O(path length * average
// degree) index queries. A read-only index walks the attached graph; an
// index opened WithUpdates walks its live adjacency, serialized with
// writers so the walk sees one graph state.
//
// It returns ErrNoGraph when no graph is attached, ErrUnreachable when no
// path exists, and a descriptive error when the index is inconsistent
// with the graph (e.g. a corrupt file was loaded), so a serving process
// never crashes on bad input.
func (x *Index) Path(s, t int32) ([]int32, error) { return x.eng.Path(s, t, x.g) }

// PathLength sums the edge weights along a path, validating that each hop
// is an edge of the attached graph (on an index opened WithUpdates, the
// graph as it was at Open). Used by tests and example programs to check
// reconstructed paths.
func (x *Index) PathLength(path []int32) (uint32, error) {
	if x.g == nil {
		return 0, ErrNoGraph
	}
	var total uint32
	for i := 0; i+1 < len(path); i++ {
		w, ok := x.g.EdgeWeight(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("hopdb: (%d,%d) is not an edge", path[i], path[i+1])
		}
		total += uint32(w)
	}
	return total, nil
}
