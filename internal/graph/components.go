package graph

// Connectivity utilities. Scale-free datasets are usually disconnected
// (the paper's SNAP/KONECT graphs all have satellite components), so
// analysis tooling reports component structure before indexing: label
// sizes and query semantics (Infinity across components) depend on it.

// ComponentStats summarizes weak connectivity.
type ComponentStats struct {
	Components int
	// Largest is the vertex count of the largest weakly connected
	// component.
	Largest int32
	// LargestFrac is Largest / |V|.
	LargestFrac float64
}

// WeakComponents labels every vertex with a component id (directed
// graphs are treated as undirected) and returns the labels plus counts.
func WeakComponents(g *Graph) ([]int32, ComponentStats) {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stats ComponentStats
	var queue []int32
	var largest int32
	next := int32(0)
	for s := int32(0); s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := next
		next++
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, s)
		var size int32 = 1
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.OutNeighbors(u) {
				if comp[v] < 0 {
					comp[v] = id
					size++
					queue = append(queue, v)
				}
			}
			if g.Directed() {
				for _, v := range g.InNeighbors(u) {
					if comp[v] < 0 {
						comp[v] = id
						size++
						queue = append(queue, v)
					}
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	stats.Components = int(next)
	stats.Largest = largest
	if n > 0 {
		stats.LargestFrac = float64(largest) / float64(n)
	}
	return comp, stats
}
