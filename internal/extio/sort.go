package extio

import (
	"fmt"
	"os"
	"slices"
)

// SortUnique externally sorts the record file at path in place by Less
// and keeps only the first record of each (K1, K2) pair, which is the
// one with the minimum V. Runs of at most MemoryRecords records are
// radix-sorted in memory, deduplicated and spilled, then merged with the
// same dedup, in several passes when the run count exceeds the fan-in
// the memory budget allows. It returns the number of records kept.
func SortUnique(path string, cfg Config) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	runs, kept, err := makeRuns(path, cfg)
	defer func() {
		for _, r := range runs {
			os.Remove(r)
		}
	}()
	if err != nil {
		return 0, err
	}
	if len(runs) == 0 {
		// Empty input: truncate output.
		return 0, WriteAll(path, cfg, nil)
	}
	fan := max(cfg.MemoryRecords/cfg.BlockRecords-1, 2)
	for pass := 0; len(runs) > 1; pass++ {
		var next []string
		kept = 0
		for i := 0; i < len(runs); i += fan {
			j := min(i+fan, len(runs))
			out := fmt.Sprintf("%s.merge.%d.%d", path, pass, i/fan)
			n, err := MergeUnique(runs[i:j], out, cfg)
			if err != nil {
				os.Remove(out)
				return 0, err
			}
			for _, r := range runs[i:j] {
				os.Remove(r)
			}
			next = append(next, out)
			kept += n
		}
		runs = next
	}
	if err := os.Rename(runs[0], path); err != nil {
		return 0, err
	}
	runs = nil
	return kept, nil
}

// makeRuns splits the input into sorted, deduplicated run files and
// returns them with their total record count. The run buffer holds
// min(M, records in the file) records, and the radix scratch as many
// again.
func makeRuns(path string, cfg Config) ([]string, int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	size := int(min(info.Size()/RecordBytes, int64(cfg.MemoryRecords)))
	if size == 0 {
		// Still scan the file so a truncated record is reported.
		size = 1
	}
	r, err := NewReader(path, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	var runs []string
	var kept int64
	buf := make([]Record, 0, size)
	tmp := make([]Record, size)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		sorted := dedupSorted(radixSort(buf, tmp))
		run := fmt.Sprintf("%s.run.%d", path, len(runs))
		runs = append(runs, run)
		if err := WriteAll(run, cfg, sorted); err != nil {
			return err
		}
		kept += int64(len(sorted))
		buf = buf[:0]
		return nil
	}
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		buf = append(buf, rec)
		if len(buf) == cap(buf) {
			if err := flush(); err != nil {
				return runs, 0, err
			}
		}
	}
	if err := r.Err(); err != nil {
		return runs, 0, err
	}
	if err := flush(); err != nil {
		return runs, 0, err
	}
	return runs, kept, nil
}

// SortRecords sorts recs in memory by Less with the radix sort the runs
// of SortUnique use. It keeps duplicates.
func SortRecords(recs []Record) {
	copy(recs, radixSort(recs, make([]Record, len(recs))))
}

// signBit flips int32 keys into unsigned order: negative keys first.
const signBit = 1 << 31

// radixSort sorts recs by Less with a stable LSD radix sort over the
// twelve bytes of (K1, K2, V), least significant first, and returns
// whichever of recs and tmp holds the result; tmp must be at least as
// long as recs. A digit every record shares needs no pass and is
// skipped, so keys drawn from a small range cost a few passes, not
// twelve.
func radixSort(recs, tmp []Record) []Record {
	n := len(recs)
	if n < 2 {
		return recs
	}
	// counts[w*4+b] histograms byte b of word w, words ordered V, K2, K1.
	var counts [12][256]int
	for _, r := range recs {
		v, k2, k1 := r.V, uint32(r.K2)^signBit, uint32(r.K1)^signBit
		counts[0][byte(v)]++
		counts[1][byte(v>>8)]++
		counts[2][byte(v>>16)]++
		counts[3][byte(v>>24)]++
		counts[4][byte(k2)]++
		counts[5][byte(k2>>8)]++
		counts[6][byte(k2>>16)]++
		counts[7][byte(k2>>24)]++
		counts[8][byte(k1)]++
		counts[9][byte(k1>>8)]++
		counts[10][byte(k1>>16)]++
		counts[11][byte(k1>>24)]++
	}
	src, dst := recs, tmp[:n]
	for d := range counts {
		c := &counts[d]
		if slices.Contains(c[:], n) {
			continue
		}
		shift := uint(d%4) * 8
		sum := 0
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		switch d / 4 {
		case 0:
			for _, r := range src {
				b := byte(r.V >> shift)
				dst[c[b]] = r
				c[b]++
			}
		case 1:
			for _, r := range src {
				b := byte((uint32(r.K2) ^ signBit) >> shift)
				dst[c[b]] = r
				c[b]++
			}
		default:
			for _, r := range src {
				b := byte((uint32(r.K1) ^ signBit) >> shift)
				dst[c[b]] = r
				c[b]++
			}
		}
		src, dst = dst, src
	}
	return src
}

// dedupSorted keeps the first record of each (K1, K2) pair of the
// Less-sorted recs, in place.
func dedupSorted(recs []Record) []Record {
	out := recs[:0]
	for i, r := range recs {
		if i > 0 && r.K1 == out[len(out)-1].K1 && r.K2 == out[len(out)-1].K2 {
			continue
		}
		out = append(out, r)
	}
	return out
}

// mergeItem is one input's head record in the k-way merge.
type mergeItem struct {
	rec Record
	src int
}

// before orders heap items by record, then by input index, so equal
// records leave in input order.
func (a mergeItem) before(b mergeItem) bool {
	if a.rec != b.rec {
		return Less(a.rec, b.rec)
	}
	return a.src < b.src
}

// siftDown restores the min-heap property of h below i.
func siftDown(h []mergeItem, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// MergeUnique k-way merges inputs, each sorted by Less, into out and
// keeps the first record of each (K1, K2) pair: the minimum V, and of
// equal records the one from the earliest input. It returns the number
// of records written.
func MergeUnique(inputs []string, out string, cfg Config) (int64, error) {
	readers := make([]*Reader, 0, len(inputs))
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, p := range inputs {
		r, err := NewReader(p, cfg)
		if err != nil {
			return 0, err
		}
		readers = append(readers, r)
	}
	w, err := NewWriter(out, cfg)
	if err != nil {
		return 0, err
	}
	h := make([]mergeItem, 0, len(readers))
	for i, r := range readers {
		if rec, ok := r.Next(); ok {
			h = append(h, mergeItem{rec, i})
		} else if err := r.Err(); err != nil {
			w.Close()
			return 0, err
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	var last Record
	for len(h) > 0 {
		it := h[0]
		if w.Count() == 0 || it.rec.K1 != last.K1 || it.rec.K2 != last.K2 {
			if err := w.Append(it.rec); err != nil {
				w.Close()
				return 0, err
			}
			last = it.rec
		}
		r := readers[it.src]
		if rec, ok := r.Next(); ok {
			h[0].rec = rec
		} else if err := r.Err(); err != nil {
			w.Close()
			return 0, err
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return w.Count(), w.Close()
}
