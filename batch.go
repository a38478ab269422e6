package hopdb

import (
	"sync"

	"repro/internal/wire"
)

// QueryPair is one (source, target) request for DistanceBatch. It is the
// pair type of the Querier batch contract, shared by every backend.
type QueryPair = wire.QueryPair

// DistanceBatch answers many queries, sharding them across workers
// goroutines (<= 1 runs serially). Queries run over one immutable label
// epoch (or the accelerated kernel when enabled), loaded once for the
// whole batch, so concurrent access is safe — including on a
// memory-mapped index from Open with WithMmap, and while a writer
// streams updates into an index opened WithUpdates: the batch answers
// from one consistent graph state. results[i] corresponds to pairs[i],
// with Infinity for unreachable pairs. Throughput-oriented callers
// (batch analytics, betweenness estimation) should prefer this over a
// Distance loop.
func (x *Index) DistanceBatch(pairs []QueryPair, workers int) []uint32 {
	return x.DistanceBatchInto(make([]uint32, len(pairs)), pairs, workers)
}

// DistanceBatchInto is DistanceBatch writing into a caller-provided
// results slice (len(results) must be >= len(pairs)), so throughput
// servers can recycle buffers across requests instead of allocating per
// batch. It returns results[:len(pairs)].
func (x *Index) DistanceBatchInto(results []uint32, pairs []QueryPair, workers int) []uint32 {
	var dist func(s, t int32) uint32
	if bp := x.bp.Load(); bp != nil {
		dist = bp.Distance
	} else if ck := x.ck.Load(); ck != nil {
		dist = ck.Distance
	} else {
		dist = x.eng.Current().Distance
	}
	return batchInto(results, pairs, workers, func(pairs []QueryPair, results []uint32) {
		for i, p := range pairs {
			results[i] = dist(p.S, p.T)
		}
	})
}

// batchInto is the shared batch skeleton behind every local backend's
// DistanceBatchInto: it shards pairs into contiguous chunks across up to
// workers goroutines and invokes run once per chunk (so a backend can
// hold per-worker scratch state for the whole chunk). run must be safe
// for concurrent invocation; results[i] answers pairs[i].
func batchInto(results []uint32, pairs []QueryPair, workers int, run func(pairs []QueryPair, results []uint32)) []uint32 {
	results = results[:len(pairs)]
	if len(pairs) == 0 {
		return results
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		run(pairs, results)
		return results
	}
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(pairs[lo:hi], results[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return results
}
