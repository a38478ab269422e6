package label

import "sort"

// CoverageStats quantifies the paper's small-hitting-set observations
// (Table 7, Figure 8): how many of the highest-ranked vertices account
// for a given fraction of all label entries.
type CoverageStats struct {
	// TopPercent[i] is the fraction (0..1) of vertices, taken in rank
	// order, needed to cover Thresholds[i] of all label entries.
	Thresholds []float64
	TopPercent []float64
	// Curve is a sampled cumulative coverage curve: Curve[i] is the
	// fraction of entries covered by the top (i / (len(Curve)-1)) *
	// CurveMaxFrac fraction of vertices.
	Curve        []float64
	CurveMaxFrac float64
}

// Coverage computes the coverage statistics. An entry (u, d) is covered by
// its pivot u. Because internal ids equal ranks, the "top k vertices" are
// simply ids 0..k-1.
func Coverage(x *Index, thresholds []float64, curvePoints int, curveMaxFrac float64) CoverageStats {
	perPivot := make([]int64, x.N)
	var total int64
	count := func(lists [][]Entry) {
		for v := int32(0); v < x.N; v++ {
			for _, e := range lists[v] {
				perPivot[e.Pivot]++
				total++
			}
		}
	}
	count(x.Out)
	if x.Directed {
		count(x.In)
	}
	cum := make([]int64, x.N+1)
	for v := int32(0); v < x.N; v++ {
		cum[v+1] = cum[v] + perPivot[v]
	}
	st := CoverageStats{Thresholds: thresholds, CurveMaxFrac: curveMaxFrac}
	st.TopPercent = make([]float64, len(thresholds))
	for i, th := range thresholds {
		if total == 0 {
			st.TopPercent[i] = 0
			continue
		}
		need := int64(th * float64(total))
		k := sort.Search(int(x.N)+1, func(k int) bool { return cum[k] >= need })
		st.TopPercent[i] = float64(k) / float64(x.N)
	}
	if curvePoints > 1 && x.N > 0 {
		st.Curve = make([]float64, curvePoints)
		for i := 0; i < curvePoints; i++ {
			frac := curveMaxFrac * float64(i) / float64(curvePoints-1)
			k := int64(frac * float64(x.N))
			if k > int64(x.N) {
				k = int64(x.N)
			}
			if total == 0 {
				st.Curve[i] = 0
			} else {
				st.Curve[i] = float64(cum[k]) / float64(total)
			}
		}
	}
	return st
}
