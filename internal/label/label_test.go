package label

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// tinyIndex builds a small hand-checked index:
//
//	Lout(2) = {(0,1)}, Lout(3) = {(0,2),(1,1)}
//	Lin(2) = {(1,3)},  Lin(3) = {(0,1)}
func tinyIndex() *Index {
	x := NewIndex(4, true, false)
	x.Out[2] = []Entry{{0, 1}}
	x.Out[3] = []Entry{{0, 2}, {1, 1}}
	x.In[2] = []Entry{{1, 3}}
	x.In[3] = []Entry{{0, 1}}
	return x
}

func TestDistanceMergeJoin(t *testing.T) {
	x := tinyIndex()
	// 2 -> 3 via pivot 0: 1 + 1 = 2.
	if d := x.Distance(2, 3); d != 2 {
		t.Errorf("dist(2,3) = %d, want 2", d)
	}
	// 3 -> 2 via pivot 1: 1 + 3 = 4.
	if d := x.Distance(3, 2); d != 4 {
		t.Errorf("dist(3,2) = %d, want 4", d)
	}
	if d := x.Distance(1, 1); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	if d := x.Distance(0, 1); d != graph.Infinity {
		t.Errorf("dist(0,1) = %d, want Infinity", d)
	}
	if d := x.Distance(-1, 2); d != graph.Infinity {
		t.Errorf("out-of-range query = %d, want Infinity", d)
	}
	if d := x.Distance(0, 99); d != graph.Infinity {
		t.Errorf("out-of-range query = %d, want Infinity", d)
	}
}

func TestTrivialPivotHandling(t *testing.T) {
	x := tinyIndex()
	// 2 -> 0: pivot 0 is the target itself: Lookup(Lout(2), 0) = 1.
	if d := x.Distance(2, 0); d != 1 {
		t.Errorf("dist(2,0) = %d, want 1", d)
	}
	// 0 -> 3: pivot 0 is the source itself: Lookup(Lin(3), 0) = 1.
	if d := x.Distance(0, 3); d != 1 {
		t.Errorf("dist(0,3) = %d, want 1", d)
	}
}

func TestMeetingPivot(t *testing.T) {
	x := tinyIndex()
	p, d := x.MeetingPivot(2, 3)
	if p != 0 || d != 2 {
		t.Errorf("meeting pivot = (%d,%d), want (0,2)", p, d)
	}
	p, d = x.MeetingPivot(2, 0)
	if p != 0 || d != 1 {
		t.Errorf("meeting pivot endpoint case = (%d,%d), want (0,1)", p, d)
	}
	p, d = x.MeetingPivot(0, 1)
	if p != -1 || d != graph.Infinity {
		t.Errorf("unreachable = (%d,%d)", p, d)
	}
}

func TestInsertLookup(t *testing.T) {
	var l []Entry
	l, ch := Insert(l, 5, 10)
	if !ch || len(l) != 1 {
		t.Fatal("insert into empty failed")
	}
	l, ch = Insert(l, 2, 7)
	if !ch || l[0].Pivot != 2 {
		t.Fatalf("sorted insert failed: %v", l)
	}
	l, ch = Insert(l, 5, 12)
	if ch {
		t.Error("worse distance must not change the list")
	}
	l, ch = Insert(l, 5, 3)
	if !ch {
		t.Error("better distance must update")
	}
	if d, ok := Lookup(l, 5); !ok || d != 3 {
		t.Errorf("lookup = (%d,%v)", d, ok)
	}
	if _, ok := Lookup(l, 99); ok {
		t.Error("phantom lookup")
	}
}

func TestInsertQuick(t *testing.T) {
	f := func(pivots []uint8, dists []uint8) bool {
		var l []Entry
		best := map[int32]uint32{}
		for i := range pivots {
			p := int32(pivots[i])
			d := uint32(dists[i%len(dists)]) + 1
			l, _ = Insert(l, p, d)
			if cur, ok := best[p]; !ok || d < cur {
				best[p] = d
			}
		}
		if len(l) != len(best) {
			return false
		}
		prev := int32(-1)
		for _, e := range l {
			if e.Pivot <= prev {
				return false
			}
			prev = e.Pivot
			if best[e.Pivot] != e.Dist {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(func(p, d []uint8) bool {
		if len(p) == 0 || len(d) == 0 {
			return true
		}
		return f(p, d)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	x := tinyIndex()
	if err := x.Validate(); err != nil {
		t.Errorf("valid index rejected: %v", err)
	}
	bad := tinyIndex()
	bad.Out[2] = []Entry{{3, 1}} // pivot ranks below owner
	if err := bad.Validate(); err == nil {
		t.Error("non-outranking pivot accepted")
	}
	bad2 := tinyIndex()
	bad2.Out[3] = []Entry{{1, 1}, {0, 2}} // unsorted
	if err := bad2.Validate(); err == nil {
		t.Error("unsorted list accepted")
	}
	bad3 := tinyIndex()
	bad3.Out[3] = []Entry{{0, 2}, {0, 3}} // duplicate pivot
	if err := bad3.Validate(); err == nil {
		t.Error("duplicate pivot accepted")
	}
}

func TestPermMapping(t *testing.T) {
	x := NewIndex(3, false, false)
	// Internal rank ids: 0 highest. L(1) = {(0, 5)}; original ids are
	// reversed by the perm below.
	x.Out[1] = []Entry{{0, 5}}
	x.SetPerm([]int32{2, 1, 0}) // original 0 -> rank 2, original 2 -> rank 0
	if d := x.Distance(1, 2); d != 5 {
		t.Errorf("dist(orig 1, orig 2) = %d, want 5", d)
	}
	if d := x.Distance(2, 1); d != 5 {
		t.Errorf("undirected reverse = %d, want 5", d)
	}
}

func TestCountsAndSizes(t *testing.T) {
	x := tinyIndex()
	if got := x.Entries(); got != 5 {
		t.Errorf("entries = %d, want 5", got)
	}
	if got := x.SizeBytes(); got != 40 {
		t.Errorf("size = %d, want 40", got)
	}
	if got := x.AvgLabel(); got != 1.25 {
		t.Errorf("avg label = %v, want 1.25", got)
	}
	if got := x.MaxLabel(); got != 3 {
		t.Errorf("max label = %d, want 3", got)
	}
	und := NewIndex(2, false, false)
	und.Out[1] = []Entry{{0, 1}}
	if got := und.Entries(); got != 1 {
		t.Errorf("undirected entries double-counted: %d", got)
	}
}

func TestEqual(t *testing.T) {
	x, y := tinyIndex(), tinyIndex()
	if !x.Equal(y) {
		t.Fatal("identical indexes differ")
	}
	y.Out[2][0].Dist = 99
	if x.Equal(y) {
		t.Fatal("indexes differing in one distance still equal")
	}
}

func TestCoverage(t *testing.T) {
	// All entries pivot at vertex 0: coverage should hit 100% with the
	// single top vertex.
	x := NewIndex(10, false, false)
	for v := int32(1); v < 10; v++ {
		x.Out[v] = []Entry{{0, 1}}
	}
	st := Coverage(x, []float64{0.7, 0.9}, 5, 0.5)
	for i, frac := range st.TopPercent {
		if frac > 0.11 {
			t.Errorf("threshold %v needs %v of vertices, want <= 0.11", st.Thresholds[i], frac)
		}
	}
	if len(st.Curve) != 5 {
		t.Fatalf("curve points = %d", len(st.Curve))
	}
	if st.Curve[len(st.Curve)-1] != 1 {
		t.Errorf("curve should reach 1 with half the vertices on this index: %v", st.Curve)
	}
	if st.Curve[0] != 0 {
		t.Errorf("curve at 0%% vertices = %v", st.Curve[0])
	}
}
