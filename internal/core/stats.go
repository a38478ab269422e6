package core

import "time"

// IterStats records one iteration of the build, feeding the paper's
// Figure 10 (growing factor, pruning factor, size ratios, time ratio).
type IterStats struct {
	// Iteration number, 1-based (the initialization that turns edges
	// into labels is iteration 0 and produces no IterStats row).
	Iteration int
	// Stepping reports whether this iteration used Hop-Stepping rules.
	Stepping bool
	// Raw is the number of rule firings (candidates before
	// deduplication).
	Raw int64
	// Candidates is the number of distinct (owner, pivot) candidates
	// after keeping the minimum distance per pair.
	Candidates int64
	// Pruned is how many candidates the pruning step removed.
	Pruned int64
	// Survivors is Candidates - Pruned: entries added (or improved).
	Survivors int64
	// PrevSize is the number of entries generated in the previous
	// iteration (the join's prev side).
	PrevSize int64
	// LabelSize is the cumulative number of label entries after this
	// iteration.
	LabelSize int64
	// Duration is the wall-clock time of the iteration.
	Duration time.Duration
	// ReadIOs/WriteIOs count the iteration's block transfers in an
	// external build. In-memory builds leave them zero, and omitempty
	// keeps them out of their checkpoint manifests.
	ReadIOs  int64 `json:",omitempty"`
	WriteIOs int64 `json:",omitempty"`
}

// GrowingFactor is the paper's candidates / previous-new-labels ratio.
func (s IterStats) GrowingFactor() float64 {
	if s.PrevSize == 0 {
		return 0
	}
	return float64(s.Candidates) / float64(s.PrevSize)
}

// PruningFactor is the paper's pruned / candidates ratio.
func (s IterStats) PruningFactor() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Candidates)
}

// BuildStats summarizes a whole build.
type BuildStats struct {
	Method     Method
	Iterations int
	// Workers is the effective parallelism the build ran with after
	// clamping Options.Parallelism (see effectiveWorkers): 1 for serial and
	// external builds. Recorded so callers can see what they actually
	// got when the requested value was clamped.
	Workers int
	// ResumedFrom is the iteration a checkpoint-resumed build continued
	// after (0 for a fresh build): iterations 1..ResumedFrom were
	// restored from the checkpoint, not executed.
	ResumedFrom int
	// TotalCandidates sums deduplicated candidates over all iterations.
	TotalCandidates int64
	// TotalPruned sums pruned candidates over all iterations.
	TotalPruned int64
	// Entries is the final number of non-trivial label entries.
	Entries int64
	// Duration is the total build wall-clock time.
	Duration time.Duration
	// PerIteration is populated when Options.CollectStats is set.
	PerIteration []IterStats
	// ReadIOs/WriteIOs count block transfers for external builds
	// (always zero for in-memory builds).
	ReadIOs  int64
	WriteIOs int64
}
