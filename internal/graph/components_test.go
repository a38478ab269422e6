package graph

import "testing"

func TestWeakComponents(t *testing.T) {
	b := NewBuilder(false, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.Grow(6) // vertex 5 isolated
	g := mustBuild(t, b)
	comp, st := WeakComponents(g)
	if st.Components != 3 {
		t.Fatalf("components = %d, want 3", st.Components)
	}
	if st.Largest != 3 || st.LargestFrac != 0.5 {
		t.Errorf("largest = %d (%.2f), want 3 (0.50)", st.Largest, st.LargestFrac)
	}
	if comp[0] != comp[2] || comp[0] == comp[3] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Errorf("component labels wrong: %v", comp)
	}
}

func TestWeakComponentsDirectedIgnoresDirection(t *testing.T) {
	b := NewBuilder(true, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 1, 1) // 2 -> 1: weakly connects 2 with 0
	g := mustBuild(t, b)
	comp, st := WeakComponents(g)
	if st.Components != 1 {
		t.Fatalf("components = %d, want 1: %v", st.Components, comp)
	}
}
