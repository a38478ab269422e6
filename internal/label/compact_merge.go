package label

// compactMerge intersects two packed, sentinel-terminated label rows and
// returns the minimum joined distance (seeded with best, the trivial-
// pivot answer). It is pure Go with no unsafe. Data-dependent cursor
// movement through divergent regions is computed as arithmetic on the
// comparison result instead of a branch; the one data-dependent branch
// the loop keeps — the matching-pivot test — is kept deliberately,
// because it is the predictable one (see below) and predicting it lets
// the core run ahead of the masked-advance dependency chain.
//
// The loop relies on the row layout invariants (see CompactIndex): rows
// are non-empty and end with at least one sentinel key whose pivot field
// outranks every real pivot. An exhausted side therefore parks on its
// sentinel, and the merge terminates the moment either side parks — no
// further match is possible, and walking the longer row's tail would be
// pure waste. A parked side is recognized in one unsigned compare:
// every real key is at most (compactMaxPivot<<8)|0xFF < compactParked.
func compactMerge(a, b []uint32, best uint32) uint32 {
	i, j := 0, 0
	for {
		ka, kb := a[i], b[j]
		if ka >= compactParked || kb >= compactParked {
			return best
		}
		pa, pb := ka>>8, kb>>8
		if pa == pb {
			// Matching-pivot fast path. On scale-free labels both rows
			// lead with the same top-ranked hubs, so this branch is taken
			// run-after-run and predicts almost perfectly — letting the
			// core issue the next iteration's loads speculatively instead
			// of waiting out the masked-advance dependency chain.
			if d := (ka & compactDistMask) + (kb & compactDistMask); d < best {
				best = d
			}
			i++
			j++
			continue
		}
		// Divergent region: advance the side holding the smaller pivot by
		// arithmetic on the comparison result instead of a data-dependent
		// branch (pa < pb exactly when pb-pa does not borrow into the top
		// bit). Which side lags here is close to random, so a branch would
		// mispredict; the masks trade that for a few ALU ops.
		lt := (pb - pa) >> 31 // 1 when pb < pa: both fit 24 bits, so bit 31 is the borrow
		i += int(lt ^ 1)
		j += int(lt)
	}
}
