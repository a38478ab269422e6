package hopdb

import "repro/internal/wire"

// Backend identifies which implementation answers a Querier's queries;
// see QuerierStats.
type Backend = wire.Backend

// The built-in backend kinds reported by Querier.Stats.
const (
	// BackendHeap serves from label arrays resident in process memory
	// (Build, or Open without WithMmap, WithDisk or WithRemote — with or
	// without WithUpdates).
	BackendHeap = wire.BackendHeap
	// BackendMmap serves from a memory-mapped index file (Open with
	// WithMmap).
	BackendMmap = wire.BackendMmap
	// BackendDisk serves an index file from disk (Open with WithDisk),
	// reading only the two label rows each query needs.
	BackendDisk = wire.BackendDisk
	// BackendRemote forwards queries to a hopdb-serve instance over HTTP
	// (Open with WithRemote).
	BackendRemote = wire.BackendRemote
)

// QuerierStats describes a query backend: what serves the answers and
// how big the index is.
type QuerierStats = wire.QuerierStats

// Kernel identifies which distance kernel answers an in-memory backend's
// queries; see QuerierStats.
type Kernel = wire.Kernel

// The kernel kinds reported by QuerierStats.Kernel.
const (
	// KernelScalar is the portable merge-join over 8-byte label entries.
	KernelScalar = wire.KernelScalar
	// KernelCompact is the branch-free merge over packed 4-byte keys
	// (Index.EnableCompact; automatic on Build and heap opens).
	KernelCompact = wire.KernelCompact
	// KernelBitParallel answers from the bit-parallel hub tuples
	// (EnableBitParallel / WithBitParallel).
	KernelBitParallel = wire.KernelBitParallel
)

// Querier is the backend-agnostic distance query contract. Every way of
// holding a hop-doubling index — in heap memory (Build, Open), memory-
// mapped (WithMmap), resident on disk (WithDisk), bit-parallel
// accelerated (WithBitParallel), or behind a hopdb-serve instance
// (WithRemote, package repro/client) — satisfies it, so call sites and
// servers are written once and work against any backend.
//
// Implementations are safe for concurrent use.
type Querier interface {
	// Distance returns the exact distance from s to t and whether t is
	// reachable from s, in the caller's original vertex ids. Unreachable
	// (and out-of-range) pairs answer (Infinity, false).
	Distance(s, t int32) (uint32, bool)
	// DistanceBatchInto answers many queries into a caller-provided
	// results slice (len(results) >= len(pairs)), sharding across up to
	// workers goroutines where the backend benefits from it, and returns
	// results[:len(pairs)] with results[i] answering pairs[i]
	// (Infinity for unreachable pairs).
	DistanceBatchInto(results []uint32, pairs []QueryPair, workers int) []uint32
	// N returns the number of indexed vertices.
	N() int32
	// Stats describes the backend and index size.
	Stats() QuerierStats
	// Close releases backend resources (mmap, file handles, connections).
	// The Querier must not be used afterwards.
	Close() error
}

// Pather is the optional extension of Querier for backends that can
// reconstruct shortest paths, not just distances: an Index with its graph
// attached (WithGraph), or a remote client whose server has one.
// Path returns ErrNoGraph when the backend cannot reconstruct paths and
// ErrUnreachable when no path exists.
type Pather interface {
	Path(s, t int32) ([]int32, error)
}

// Lookuper is the optional extension of Querier for backends whose
// queries can fail for reasons other than unreachability — disk I/O,
// the network. Lookup reports such failures instead of folding them
// into (Infinity, false), so servers and tools can distinguish "t is
// not reachable" from "the answer could not be computed" (and, e.g.,
// avoid caching the latter). Every built-in backend implements it; for
// heap and mmap indexes the error is always nil.
type Lookuper interface {
	Lookup(s, t int32) (uint32, bool, error)
}

// LookupBatcher is the batch form of Lookuper: like DistanceBatchInto
// but reporting the first failure instead of writing Infinity. The
// results content is unspecified when an error is returned.
type LookupBatcher interface {
	LookupBatchInto(results []uint32, pairs []QueryPair, workers int) ([]uint32, error)
}

// Every local backend satisfies the contracts; the remote client is
// asserted in the root tests to avoid importing it here.
var (
	_ Querier       = (*Index)(nil)
	_ Querier       = (*diskQuerier)(nil)
	_ Pather        = (*Index)(nil)
	_ Lookuper      = (*Index)(nil)
	_ Lookuper      = (*diskQuerier)(nil)
	_ LookupBatcher = (*Index)(nil)
	_ LookupBatcher = (*diskQuerier)(nil)
	_ Updatable     = updatable{}
	_ Replicator    = updatable{}
)

// Lookup implements Lookuper; in-memory queries cannot fail, so the
// error is always nil.
func (x *Index) Lookup(s, t int32) (uint32, bool, error) {
	d, ok := x.Distance(s, t)
	return d, ok, nil
}

// LookupBatchInto implements LookupBatcher; in-memory batches cannot
// fail, so the error is always nil.
func (x *Index) LookupBatchInto(results []uint32, pairs []QueryPair, workers int) ([]uint32, error) {
	return x.DistanceBatchInto(results, pairs, workers), nil
}

// Stats describes the index for the Querier contract: heap- or mmap-
// backed (from the epoch's base), and which kernel answers point queries
// (the same precedence Distance uses: bit-parallel, then compact, then
// scalar).
func (x *Index) Stats() QuerierStats {
	e := x.eng.Current()
	backend := BackendHeap
	if e.Base().Mapped() {
		backend = BackendMmap
	}
	kernel := KernelScalar
	if x.ck.Load() != nil {
		kernel = KernelCompact
	}
	if x.bp.Load() != nil {
		kernel = KernelBitParallel
	}
	return QuerierStats{
		Backend:     backend,
		Kernel:      kernel,
		Directed:    e.Directed(),
		Vertices:    e.N(),
		Entries:     e.Entries(),
		SizeBytes:   e.SizeBytes(),
		BitParallel: kernel == KernelBitParallel,
	}
}
