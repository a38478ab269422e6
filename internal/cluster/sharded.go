// Sharded scatter-gather: the router-side query path when the pool's
// replicas are rank shards (RouterConfig.ShardMap + Hub). Each pair
// needs only Out(rank(s)) and In(rank(t)), and the rank invariant
// (every pivot outranks its owner) makes a contiguous rank range a
// complete shard key, so a pair resolves to at most two owning shards:
//
//   - both ranks in the hub tier -> merged against the router-resident
//     hub shard, zero leaf RPCs;
//   - otherwise                  -> the two rows are merged on the
//     router: hub-ranked rows come from the hub, leaf-ranked ones via
//     POST /v1/rows, deduped across the batch and sent as one request
//     per owning leaf.
//
// Fan-out rides the same hedging/failover loop as unsharded routing,
// with replica choice constrained to the shard that owns the range.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/label"
	"repro/internal/shard"
	"repro/internal/wire"
)

// shardedAnswer answers pairs into results against the shard fleet:
// pairs inside the hub tier are answered from the hub, every other pair
// is merged here from its two rows, and the leaf-owned rows are fetched
// concurrently, one request per leaf (per ChunkSize rows). On failure
// the first upstream outcome is returned for relaying.
func (rt *Router) shardedAnswer(ctx context.Context, results []uint32, pairs []wire.QueryPair, fwd http.Header, noHedge bool) *upstream {
	m, hub := rt.cfg.ShardMap, rt.cfg.Hub
	h := m.HubRanks

	// Plan: one key rank<<33 | in<<32 | slot per leaf-ranked side of a
	// merged pair, slot = 2*pair + side. Sorted, equal rows sit next to
	// each other (the dedup) and, as leaves own ascending contiguous rank
	// ranges, each leaf's rows form one run.
	var (
		keys    []uint64
		hubHits int64
	)
	for i, p := range pairs {
		if p.S < 0 || p.T < 0 || p.S >= m.N || p.T >= m.N {
			results[i] = wire.Infinity
			continue
		}
		rs, rtk := hub.Perm[p.S], hub.Perm[p.T]
		if rs == rtk {
			results[i] = 0
			continue
		}
		if rs < h && rtk < h {
			d, err := hub.DistanceRanked(rs, rtk)
			if err != nil {
				return &upstream{err: err}
			}
			results[i] = d
			hubHits++
			continue
		}
		if rs >= h {
			keys = append(keys, uint64(rs)<<33|uint64(2*i))
		}
		if rtk >= h {
			keys = append(keys, uint64(rtk)<<33|1<<32|uint64(2*i+1))
		}
	}
	rt.hubLocal.Add(hubHits)
	slices.Sort(keys)

	// want lists the distinct rows to fetch, rows receives them, and
	// where[slot] is 1 + that side's index in both; 0 marks a hub-ranked
	// side, or both sides of a pair already answered above.
	where := make([]int32, 2*len(pairs))
	var want []shard.RowKey
	for j, k := range keys {
		if j == 0 || k>>32 != keys[j-1]>>32 {
			want = append(want, shard.RowKey{Rank: int32(k >> 33), In: k>>32&1 != 0})
		}
		where[uint32(k)] = int32(len(want))
	}
	rt.rowFetches.Add(int64(len(want)))
	rows := make([][]label.Entry, len(want))

	// One job per leaf run of want, split at ChunkSize rows.
	type rowsJob struct {
		si     wire.ShardInfo
		lo, hi int
	}
	var jobs []rowsJob
	for start, end := 0, 0; start < len(want); start = end {
		leaf := m.Shards[m.Owner(want[start].Rank)]
		si := wire.ShardInfo{Lo: leaf.Lo, Hi: leaf.Hi}
		for end < len(want) && want[end].Rank < si.Hi {
			end++
		}
		for lo := start; lo < end; lo += rt.cfg.ChunkSize {
			jobs = append(jobs, rowsJob{si, lo, min(lo+rt.cfg.ChunkSize, end)})
		}
	}
	if fail := scatter(len(jobs), func(i int) *upstream {
		j := jobs[i]
		req := shard.AppendRowsRequest(nil, want[j.lo:j.hi])
		res := rt.forwardShard(ctx, j.si, http.MethodPost, "/v1/rows", shard.ContentTypeRows, req, fwd, noHedge)
		if res.err == nil && res.status == http.StatusOK {
			got, derr := shard.DecodeRowsResponse(res.body)
			if derr == nil && len(got) == j.hi-j.lo {
				copy(rows[j.lo:j.hi], got)
				return nil
			}
			res = upstream{err: fmt.Errorf("shard [%d,%d) answered malformed rows: %v", j.si.Lo, j.si.Hi, derr)}
		}
		return &res
	}); fail != nil {
		return fail
	}

	row := func(rank int32, in bool, w int32) []label.Entry {
		switch {
		case w > 0:
			return rows[w-1]
		case in:
			r, _ := hub.InRowRanked(rank)
			return r
		default:
			r, _ := hub.OutRowRanked(rank)
			return r
		}
	}
	for i, p := range pairs {
		ws, wt := where[2*i], where[2*i+1]
		if ws == 0 && wt == 0 {
			continue
		}
		rs, rtk := hub.Perm[p.S], hub.Perm[p.T]
		results[i] = label.MergeDistance(row(rs, false, ws), row(rtk, true, wt), rs, rtk)
	}
	return nil
}
