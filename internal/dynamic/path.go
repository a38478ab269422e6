package dynamic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Path reconstructs one shortest path from s to t (original ids,
// inclusive of both endpoints) with the same greedy neighbor walk the
// static index uses: from each vertex, step to any out-neighbor still on
// a shortest path, verified with one label query per neighbor.
//
// It runs under the writer lock so the labels and the mutable adjacency
// it walks are guaranteed to describe the same graph — an update
// arriving mid-reconstruction waits, rather than leaving the walk
// straddling two graph states. Returns wire.ErrUnreachable when t is
// not reachable from s (or either id is out of range).
func (d *Index) Path(s, t int32) ([]int32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s < 0 || t < 0 || s >= d.n || t >= d.n {
		return nil, wire.ErrUnreachable
	}
	rs, rt := d.rank(s), d.rank(t)
	x := d.cur.Load()
	remaining := x.DistanceRanked(rs, rt)
	if remaining == graph.Infinity {
		return nil, wire.ErrUnreachable
	}
	orig := func(v int32) int32 {
		if d.inv == nil {
			return v
		}
		return d.inv[v]
	}
	path := []int32{s}
	cur := rs
	for cur != rt {
		next := int32(-1)
		var nextRemaining uint32
		for _, a := range d.g.out[cur] {
			w := uint32(a.w)
			if w > remaining {
				continue
			}
			if dvt := x.DistanceRanked(a.to, rt); dvt != graph.Infinity && w+dvt == remaining {
				next, nextRemaining = a.to, dvt
				break
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("dynamic: path reconstruction stuck at %d (remaining %d): labels inconsistent with graph", orig(cur), remaining)
		}
		path = append(path, orig(next))
		cur, remaining = next, nextRemaining
	}
	return path, nil
}
