package graph

import (
	"math"
	"slices"
)

// Stats captures the scale-free characteristics the paper's analysis is
// built on (Section 2.2): the degree distribution, the rank exponent gamma
// of Lemma 1, the expansion factor R = z2/z1 of Equation (2), and the hop
// diameter D_H used to bound the number of iterations.
type Stats struct {
	N             int32
	Edges         int64
	MaxDegree     int32
	AvgDegree     float64
	RankExponent  float64 // gamma in deg(v) = |V|^-gamma * r(v)^gamma
	PowerLawAlpha float64 // MLE exponent of Prob(deg=k) ~ k^-alpha
	Z1            float64 // average 1-hop neighborhood size
	Z2            float64 // average 2-hop neighborhood size
	Expansion     float64 // R = z2/z1
	HopDiameter   int32   // exact when exhaustive, else a sampled lower bound
	Exact         bool    // whether HopDiameter is exact
}

// DegreeHistogram returns counts[k] = number of vertices with Degree k.
func DegreeHistogram(g *Graph) []int64 {
	counts := make([]int64, g.MaxDegree()+1)
	for v := int32(0); v < g.N(); v++ {
		counts[g.Degree(v)]++
	}
	return counts
}

// SortedDegrees returns all vertex degrees in non-increasing order.
func SortedDegrees(g *Graph) []int32 {
	degs := make([]int32, g.N())
	for v := int32(0); v < g.N(); v++ {
		degs[v] = g.Degree(v)
	}
	slices.Sort(degs)
	slices.Reverse(degs)
	return degs
}

// RankExponent fits gamma from Lemma 1 (Faloutsos et al.): regressing
// log(degree) on log(rank) over vertices with positive degree. Real
// scale-free graphs fall around gamma in [-0.9, -0.6].
func RankExponent(g *Graph) float64 {
	degs := SortedDegrees(g)
	var sx, sy, sxx, sxy float64
	var m float64
	for i, d := range degs {
		if d <= 0 {
			break
		}
		x := math.Log(float64(i + 1))
		y := math.Log(float64(d))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		m++
	}
	if m < 2 {
		return 0
	}
	denom := m*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (m*sxy - sx*sy) / denom
}

// PowerLawAlpha estimates the exponent alpha of the degree distribution
// Prob(k) ~ k^-alpha by the standard discrete maximum-likelihood
// approximation with kmin = 1: alpha = 1 + n / sum(ln(k / (kmin - 0.5))).
func PowerLawAlpha(g *Graph) float64 {
	var sum float64
	var n float64
	for v := int32(0); v < g.N(); v++ {
		k := g.Degree(v)
		if k < 1 {
			continue
		}
		sum += math.Log(float64(k) / 0.5)
		n++
	}
	if sum == 0 {
		return 0
	}
	return 1 + n/sum
}

// Expansion estimates z1 (average neighbors at 1 hop) and z2 (average
// vertices exactly 2 hops away) over a sample of start vertices, following
// Newman et al.'s definition; R = z2/z1 is the expansion factor.
func Expansion(g *Graph, sample int32) (z1, z2 float64) {
	n := g.N()
	if n == 0 {
		return 0, 0
	}
	if sample <= 0 || sample > n {
		sample = n
	}
	step := n / sample
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	var t1, t2 float64
	var taken float64
	for s := int32(0); s < n; s += step {
		mark[s] = s
		var frontier []int32
		for _, u := range g.OutNeighbors(s) {
			if mark[u] != s {
				mark[u] = s
				frontier = append(frontier, u)
			}
		}
		t1 += float64(len(frontier))
		var second int64
		for _, u := range frontier {
			for _, w := range g.OutNeighbors(u) {
				if mark[w] != s {
					mark[w] = s
					second++
				}
			}
		}
		t2 += float64(second)
		taken++
	}
	if taken == 0 {
		return 0, 0
	}
	return t1 / taken, t2 / taken
}

// eccentricity runs one BFS from s over out-edges and returns the largest
// finite hop distance found.
func eccentricity(g *Graph, s int32, dist []int32, queue []int32) int32 {
	for i := range dist {
		dist[i] = -1
	}
	queue = queue[:0]
	dist[s] = 0
	queue = append(queue, s)
	var ecc int32
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.OutNeighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] > ecc {
					ecc = dist[v]
				}
				queue = append(queue, v)
			}
		}
	}
	return ecc
}

// HopDiameter returns the largest hop count among all shortest paths. When
// exhaustive is true it runs a BFS from every vertex (exact, O(V*E));
// otherwise it samples high-degree vertices plus a spread of others and
// returns a lower bound. The second result reports exactness.
func HopDiameter(g *Graph, exhaustive bool, sample int32) (int32, bool) {
	n := g.N()
	if n == 0 {
		return 0, true
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	if exhaustive {
		var d int32
		for s := int32(0); s < n; s++ {
			if e := eccentricity(g, s, dist, queue); e > d {
				d = e
			}
		}
		return d, true
	}
	if sample <= 0 {
		sample = 16
	}
	if sample > n {
		sample = n
	}
	// Sample the top-degree vertex (likely central) plus an even spread.
	var best int32
	var top int32
	var topDeg int32 = -1
	for v := int32(0); v < n; v++ {
		if d := g.Degree(v); d > topDeg {
			topDeg = d
			top = v
		}
	}
	seen := map[int32]bool{}
	try := func(s int32) {
		if seen[s] {
			return
		}
		seen[s] = true
		if e := eccentricity(g, s, dist, queue); e > best {
			best = e
		}
	}
	try(top)
	step := n / sample
	for s := int32(0); s < n; s += step {
		try(s)
	}
	return best, false
}

// Collect computes the full statistics bundle. Exhaustive diameter search
// is used when |V| <= exactDiameterLimit.
func Collect(g *Graph, exactDiameterLimit int32) Stats {
	st := Stats{
		N:     g.N(),
		Edges: g.EdgeCount(),
	}
	st.MaxDegree = g.MaxDegree()
	if g.N() > 0 {
		total := 0.0
		for v := int32(0); v < g.N(); v++ {
			total += float64(g.Degree(v))
		}
		st.AvgDegree = total / float64(g.N())
	}
	st.RankExponent = RankExponent(g)
	st.PowerLawAlpha = PowerLawAlpha(g)
	st.Z1, st.Z2 = Expansion(g, 256)
	if st.Z1 > 0 {
		st.Expansion = st.Z2 / st.Z1
	}
	st.HopDiameter, st.Exact = HopDiameter(g, g.N() <= exactDiameterLimit, 32)
	return st
}
