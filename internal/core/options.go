// Package core implements the paper's contribution: Hop-Doubling label
// indexing (Section 3), the Hop-Stepping refinement (Section 5), the
// hybrid schedule the paper uses by default (Section 5.4), label pruning
// (Section 3.3), and an I/O-efficient external-memory builder mirroring
// the block-nested-loop algorithms of Section 4.
//
// The in-memory builder (Build) and the external builder (BuildExternal)
// produce identical label sets for identical options; the test suite
// enforces this equivalence.
package core

import (
	"errors"
	"fmt"

	"repro/internal/order"
)

// ErrCandidateBudget reports that an iteration exceeded
// Options.MaxCandidates; the paper's evaluation renders such builds as
// "—" (did not finish).
var ErrCandidateBudget = errors.New("core: candidate budget exceeded")

// Method selects the label-generation schedule.
type Method int

const (
	// Hybrid runs Hop-Stepping for SwitchIteration iterations and then
	// Hop-Doubling until fixpoint (paper default, Section 5.4).
	Hybrid Method = iota
	// Doubling runs pure Hop-Doubling (Section 3).
	Doubling
	// Stepping runs pure Hop-Stepping (Section 5).
	Stepping
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case Doubling:
		return "doubling"
	case Stepping:
		return "stepping"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Options configures index construction.
type Options struct {
	// Method selects doubling, stepping, or the hybrid schedule.
	Method Method
	// SwitchIteration is the number of Hop-Stepping iterations before a
	// Hybrid build switches to Hop-Doubling. The paper uses 10.
	SwitchIteration int
	// Rank selects the vertex ordering. The zero value follows the
	// paper: degree for undirected graphs; Build substitutes the
	// in*out-degree product automatically for directed graphs unless a
	// strategy was set explicitly.
	Rank order.Strategy
	// RankSet marks Rank as explicitly chosen, suppressing the directed
	// auto-substitution.
	RankSet bool
	// RankKeys, when non-nil, overrides Rank with a custom score per
	// vertex: larger key = higher rank, ties by smaller id. This is the
	// hook for the heuristic orderings Section 7 suggests for general
	// (non-scale-free) graphs.
	RankKeys []int64
	// DisablePruning turns off the pruning step (Section 3.3). Queries
	// remain correct; label sizes grow. Exposed for the ablation bench.
	DisablePruning bool
	// MaxIterations caps the number of iterations as a safety valve;
	// 0 means run to fixpoint (guaranteed by Theorems 4 and 6).
	MaxIterations int
	// MaxCandidates aborts the build with ErrCandidateBudget when one
	// iteration produces more deduplicated candidates than this. The
	// bench harness uses it to reproduce the paper's DNF entries for
	// pure Hop-Doubling on large graphs (Table 8). 0 means unlimited.
	MaxCandidates int64
	// CollectStats enables per-iteration statistics (Figure 10).
	CollectStats bool
	// Parallelism splits each iteration's pivot-grouped pass (rule
	// firing, deduplication and pruning) across this many goroutines
	// (in-memory builder only; an extension beyond the paper). Values
	// <= 1 run serially. The parallel build produces exactly the same
	// index as the serial build. The effective value is clamped (see
	// BuildStats.Workers).
	Parallelism int

	// CheckpointDir, when non-empty, makes the in-memory builder
	// persist its full state to this directory after every completed
	// iteration (atomically: record files first, manifest rename last),
	// so a killed build can be resumed without losing finished work.
	// The directory is created if missing. See Resume.
	CheckpointDir string
	// Resume continues a build from the last completed iteration
	// checkpointed in CheckpointDir instead of starting fresh. The
	// checkpoint's graph and options hashes must match the current
	// build (ErrCheckpointMismatch otherwise; ErrNoCheckpoint when the
	// directory holds no manifest), and the resumed build produces an
	// index byte-identical to an uninterrupted run — with any
	// Parallelism, which is deliberately excluded from the options
	// hash.
	Resume bool

	// External-memory settings (Section 4), used by BuildExternal.

	// MemoryBudget is the number of label records the external builder
	// may hold in memory at once (the paper's M). 0 selects a default.
	MemoryBudget int
	// BlockSize is the number of records per disk block (the paper's
	// B). 0 selects a default.
	BlockSize int
	// TempDir is where the external builder keeps its label runs;
	// empty means the OS temp dir.
	TempDir string
}

// withDefaults normalizes zero values.
func (o Options) withDefaults(directed bool) Options {
	if o.SwitchIteration <= 0 {
		o.SwitchIteration = 10
	}
	if !o.RankSet && directed {
		o.Rank = order.ByDegreeProduct
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 1 << 20
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 4096 / recordBytes
	}
	if o.BlockSize*2 > o.MemoryBudget {
		o.MemoryBudget = o.BlockSize * 2
	}
	return o
}
