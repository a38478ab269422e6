package dynamic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Path reconstructs one shortest path from s to t (original ids,
// inclusive of both endpoints) with the greedy walk hopdb.Index.Path
// documents: from each vertex, step to any out-neighbor on a shortest
// path, verified with one label query per neighbor. On an index from New
// the walk holds the writer lock over the live adjacency, so an update
// arriving mid-reconstruction waits instead of leaving the walk
// straddling two graph states, and g is ignored. A read-only index walks
// g, and returns wire.ErrNoGraph when g is nil. Unreachable and
// out-of-range pairs return wire.ErrUnreachable.
func (d *Index) Path(s, t int32, g *graph.Graph) ([]int32, error) {
	live := d.g != nil
	if live {
		d.mu.Lock()
		defer d.mu.Unlock()
	} else if g == nil {
		return nil, wire.ErrNoGraph
	}
	e := d.cur.Load()
	remaining := e.Distance(s, t)
	if remaining == graph.Infinity {
		return nil, wire.ErrUnreachable
	}
	path := []int32{s}
	for cur := s; cur != t; {
		next, nextRemaining := int32(-1), uint32(0)
		// step takes the arc cur->v of weight w if it starts a shortest
		// path to t.
		step := func(v int32, w uint32) bool {
			if w > remaining {
				return false
			}
			if dvt := e.Distance(v, t); dvt != graph.Infinity && w+dvt == remaining {
				next, nextRemaining = v, dvt
				return true
			}
			return false
		}
		if live {
			for _, a := range d.g.out[d.rank(cur)] {
				v := a.to
				if d.inv != nil {
					v = d.inv[v]
				}
				if step(v, uint32(a.w)) {
					break
				}
			}
		} else {
			ws := g.OutWeights(cur)
			for i, v := range g.OutNeighbors(cur) {
				w := uint32(1)
				if ws != nil {
					w = uint32(ws[i])
				}
				if step(v, w) {
					break
				}
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("hopdb: path reconstruction stuck at %d (remaining %d): index inconsistent with graph", cur, remaining)
		}
		path = append(path, next)
		cur, remaining = next, nextRemaining
	}
	return path, nil
}
