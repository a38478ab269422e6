package core

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/label"
)

// cand is a candidate label entry: owner's label gains (pivot, dist).
// For out-candidates it covers a path owner -> pivot; for in-candidates a
// path pivot -> owner. Pivot id is always smaller (higher rank) than
// owner id.
type cand struct {
	owner int32
	pivot int32
	dist  uint32
}

// ownerDist is an inverted-list element: some owner holds an entry with a
// known pivot at this distance.
type ownerDist struct {
	owner int32
	dist  uint32
}

// engine is the in-memory iterative builder. The graph must already be
// relabeled so that vertex id equals rank (0 = highest).
type engine struct {
	g        *graph.Graph
	directed bool
	opt      Options

	out [][]label.Entry // Lout (or the single L for undirected graphs)
	in  [][]label.Entry // Lin; aliases out when undirected

	// sides holds the out family, then the in family when directed.
	sides []*side
	// workers are the pass's per-goroutine scratch, allocated once per
	// build.
	workers []*worker
	// ck, when non-nil, persists the full engine state after every
	// completed iteration.
	ck *checkpointer

	iters           []IterStats
	totalCandidates int64
	totalPruned     int64
}

func newEngine(g *graph.Graph, opt Options) *engine {
	n := g.N()
	e := &engine{
		g:        g,
		directed: g.Directed(),
		opt:      opt,
	}
	e.out = make([][]label.Entry, n)
	e.in = e.out
	if e.directed {
		e.in = make([][]label.Entry, n)
	}
	e.sides = []*side{{same: e.out, opposite: e.in, inverted: make([][]ownerDist, n), adj: g.InNeighbors, weights: g.InWeights}}
	if e.directed {
		e.sides = append(e.sides, &side{same: e.in, opposite: e.out, inverted: make([][]ownerDist, n), adj: g.OutNeighbors, weights: g.OutWeights})
	}
	return e
}

// initialize seeds the labels with one entry per edge (the paper's
// iteration 1 base case): on each side, every stepping partner x of a
// higher-ranked pivot v gains (v, w).
func (e *engine) initialize() {
	n := e.g.N()
	for _, s := range e.sides {
		for v := int32(0); v < n; v++ {
			ws := s.weights(v)
			for i, x := range s.adj(v) {
				if x > v {
					w := uint32(1)
					if ws != nil {
						w = uint32(ws[i])
					}
					s.prev = append(s.prev, cand{x, v, w})
				}
			}
		}
		s.insert(n)
	}
}

// steppingIteration reports whether iteration i uses stepping rules.
func (e *engine) steppingIteration(i int) bool {
	switch e.opt.Method {
	case Stepping:
		return true
	case Doubling:
		return false
	default:
		return i <= e.opt.SwitchIteration
	}
}

// runFrom executes the iterative process from after completed iteration
// start (0 for a fresh build) to fixpoint and returns the number of
// iterations reached. It fails when the candidate budget is exceeded or
// a checkpoint cannot be written.
func (e *engine) runFrom(start int) (int, error) {
	iter := start
	for {
		if e.opt.MaxIterations > 0 && iter >= e.opt.MaxIterations {
			return iter, nil
		}
		iter++
		start := time.Now()
		stepping := e.steppingIteration(iter)
		var prevSize int64
		for _, s := range e.sides {
			prevSize += int64(len(s.prev))
		}

		raw, candidates := e.pass(stepping)
		if e.opt.MaxCandidates > 0 && candidates > e.opt.MaxCandidates {
			return iter, fmt.Errorf("core: iteration %d produced %d candidates (budget %d): %w",
				iter, candidates, e.opt.MaxCandidates, ErrCandidateBudget)
		}
		var survivors int64
		for _, s := range e.sides {
			s.insert(e.g.N())
			survivors += int64(len(s.prev))
		}
		// Candidates dropped by the no-pruning same-pair rule count as
		// pruned too, so the stats invariants hold in both modes (and
		// match the external builder).
		pruned := candidates - survivors

		e.totalCandidates += candidates
		e.totalPruned += pruned
		if e.opt.CollectStats {
			e.iters = append(e.iters, IterStats{
				Iteration:  iter,
				Stepping:   stepping,
				Raw:        raw,
				Candidates: candidates,
				Pruned:     pruned,
				Survivors:  survivors,
				PrevSize:   prevSize,
				LabelSize:  e.entries(),
				Duration:   time.Since(start),
			})
		}
		done := survivors == 0
		if e.ck != nil {
			if err := e.ck.save(e, iter, done); err != nil {
				return iter, fmt.Errorf("core: checkpoint after iteration %d: %w", iter, err)
			}
		}
		if done {
			return iter, nil
		}
	}
}

// entries counts non-trivial label entries currently stored.
func (e *engine) entries() int64 {
	var total int64
	for _, l := range e.out {
		total += int64(len(l))
	}
	if e.directed {
		for _, l := range e.in {
			total += int64(len(l))
		}
	}
	return total
}

// index packages the engine's labels into a label.Index.
func (e *engine) index() *label.Index {
	x := label.NewIndex(e.g.N(), e.directed, e.g.Weighted())
	copy(x.Out, e.out)
	if e.directed {
		copy(x.In, e.in)
	}
	return x
}
