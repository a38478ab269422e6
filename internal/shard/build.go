// Streaming shard builder: consumes the external builder's sorted
// (owner, pivot, dist) record files and emits shard files (v2 range
// images) plus the shard map, holding only per-rank counts and offsets
// in memory — never the label entries themselves — so shard
// construction works for indexes larger than RAM.
package shard

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/extio"
	"repro/internal/label"
)

// BuildConfig configures WriteShards.
type BuildConfig struct {
	// Shards is the number of leaf shards (>= 1).
	Shards int
	// HubRanks is the hub tier size in ranks; 0 selects
	// DefaultHubRanks.
	HubRanks int32
	// Dir is the output directory, created if missing. WriteShards
	// writes hub.sidx, leaf<i>.sidx, and shard.json into it.
	Dir string
}

// WriteShards partitions the labels in lf into a hub shard covering
// ranks [0, H) and cfg.Shards leaf shards covering contiguous rank
// ranges balanced by entry count, then writes the shard map. Entries
// stream from the record files straight to the shard files; memory use
// is O(N) counters, independent of entry count.
func WriteShards(lf *core.LabelFiles, cfg BuildConfig) (*Map, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 leaf shard, got %d", cfg.Shards)
	}
	n := lf.N
	hub := cfg.HubRanks
	if hub == 0 {
		hub = DefaultHubRanks(n)
	}
	if hub < 0 || hub > n {
		return nil, fmt.Errorf("shard: hub tier of %d ranks outside [0,%d]", hub, n)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	outCounts, err := countByOwner(lf.OutOwnerPath, lf.Cfg, n)
	if err != nil {
		return nil, err
	}
	var inCounts []int64
	if lf.Directed {
		if inCounts, err = countByOwner(lf.InOwnerPath, lf.Cfg, n); err != nil {
			return nil, err
		}
	}
	entriesAt := func(r int32) int64 {
		total := outCounts[r]
		if inCounts != nil {
			total += inCounts[r]
		}
		return total
	}

	// Partition [hub, n) into cfg.Shards contiguous ranges, greedily
	// balanced by entry count: each shard takes rows until it reaches
	// ceil(remaining / shards-left), so no leaf exceeds its fair share
	// by more than one row.
	var remaining int64
	for r := hub; r < n; r++ {
		remaining += entriesAt(r)
	}
	m := &Map{
		Version:  1,
		N:        n,
		Directed: lf.Directed,
		Weighted: lf.Weighted,
		HubRanks: hub,
		HubFile:  "hub.sidx",
	}
	lo := hub
	for i := 0; i < cfg.Shards; i++ {
		left := int64(cfg.Shards - i)
		target := (remaining + left - 1) / left
		hi := lo
		var acc int64
		for hi < n && (acc < target || i == cfg.Shards-1) {
			acc += entriesAt(hi)
			hi++
		}
		remaining -= acc
		m.Shards = append(m.Shards, Range{
			ID:      int32(i),
			Lo:      lo,
			Hi:      hi,
			File:    fmt.Sprintf("leaf%d.sidx", i),
			Entries: acc,
		})
		lo = hi
	}
	for r := int32(0); r < hub; r++ {
		m.HubEntries += entriesAt(r)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	outStream, err := newRecStream(lf.OutOwnerPath, lf.Cfg)
	if err != nil {
		return nil, err
	}
	defer outStream.close()
	var inStream *recStream
	if lf.Directed {
		if inStream, err = newRecStream(lf.InOwnerPath, lf.Cfg); err != nil {
			return nil, err
		}
		defer inStream.close()
	}

	emit := func(file string, rr label.RankRange) error {
		return emitShard(filepath.Join(cfg.Dir, file), lf, rr, outCounts, inCounts, outStream, inStream)
	}
	if err := emit(m.HubFile, label.RankRange{Lo: 0, Hi: hub, Hub: true}); err != nil {
		return nil, err
	}
	for _, r := range m.Shards {
		if err := emit(r.File, label.RankRange{Lo: r.Lo, Hi: r.Hi}); err != nil {
			return nil, err
		}
	}
	if rec, ok := outStream.peek(); ok {
		return nil, fmt.Errorf("shard: out record for rank %d beyond vertex range", rec.K1)
	}
	if inStream != nil {
		if rec, ok := inStream.peek(); ok {
			return nil, fmt.Errorf("shard: in record for rank %d beyond vertex range", rec.K1)
		}
	}
	if err := m.Save(filepath.Join(cfg.Dir, MapFile)); err != nil {
		return nil, err
	}
	return m, nil
}

// emitShard writes the range image of rr, consuming the region's
// records from the (monotonically advancing) streams. The offset tables
// span all N ranks, with every row outside rr empty.
func emitShard(path string, lf *core.LabelFiles, rr label.RankRange,
	outCounts, inCounts []int64, outStream, inStream *recStream) error {
	offs := func(counts []int64) []int64 {
		o := make([]int64, lf.N+1)
		for r := rr.Lo; r < lf.N; r++ {
			o[r+1] = o[r]
			if r < rr.Hi {
				o[r+1] += counts[r]
			}
		}
		return o
	}
	outOff := offs(outCounts)
	var inOff []int64
	if inCounts != nil {
		inOff = offs(inCounts)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fail := func(err error) error {
		f.Close()
		return err
	}
	h := label.FlatHeader{N: lf.N, Directed: lf.Directed, Weighted: lf.Weighted, Perm: lf.Perm, Range: &rr}
	if err := label.WriteFlatPreamble(w, h, outOff, inOff); err != nil {
		return fail(err)
	}
	buf := make([]label.Entry, 0, 4096)
	copyRegion := func(s *recStream, want int64) error {
		var copied int64
		for {
			rec, ok := s.peek()
			if !ok || rec.K1 >= rr.Hi {
				break
			}
			if rec.K1 < rr.Lo {
				return fmt.Errorf("shard: record for rank %d out of order in region [%d,%d)", rec.K1, rr.Lo, rr.Hi)
			}
			if len(buf) == cap(buf) {
				if err := label.WriteEntries(w, buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = append(buf, label.Entry{Pivot: rec.K2, Dist: rec.V})
			copied++
			s.next()
		}
		if err := s.err(); err != nil {
			return err
		}
		if copied != want {
			return fmt.Errorf("shard: region [%d,%d) wrote %d entries, counted %d", rr.Lo, rr.Hi, copied, want)
		}
		err := label.WriteEntries(w, buf)
		buf = buf[:0]
		return err
	}
	if err := copyRegion(outStream, outOff[lf.N]); err != nil {
		return fail(err)
	}
	if inStream != nil {
		if err := copyRegion(inStream, inOff[lf.N]); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	return f.Close()
}

// countByOwner streams a record file and tallies records per owner
// rank.
func countByOwner(path string, cfg extio.Config, n int32) ([]int64, error) {
	counts := make([]int64, n)
	r, err := extio.NewReader(path, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.K1 < 0 || rec.K1 >= n {
			return nil, fmt.Errorf("shard: label owner rank %d outside [0,%d)", rec.K1, n)
		}
		counts[rec.K1]++
	}
	return counts, r.Err()
}

// recStream is a one-record-lookahead wrapper over an extio.Reader, so
// region emission can stop exactly at its range boundary and leave the
// next region's first record for the following call.
type recStream struct {
	r   *extio.Reader
	rec extio.Record
	ok  bool
}

func newRecStream(path string, cfg extio.Config) (*recStream, error) {
	r, err := extio.NewReader(path, cfg)
	if err != nil {
		return nil, err
	}
	s := &recStream{r: r}
	s.next()
	return s, nil
}

func (s *recStream) peek() (extio.Record, bool) { return s.rec, s.ok }

func (s *recStream) next() { s.rec, s.ok = s.r.Next() }

func (s *recStream) err() error { return s.r.Err() }

func (s *recStream) close() { s.r.Close() }
