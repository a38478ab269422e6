package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/extio"
	"repro/internal/graph"
	"repro/internal/label"
)

// BuildExternal constructs the index with the I/O-efficient disk-based
// algorithm of Section 4: labels live in record files kept sorted by
// owner and by pivot, candidate generation is a sequence of sorted merge
// joins, and pruning is the paper's block-nested-loop join with memory
// budget M and block size B. All file traffic flows through extio and is
// reported in BuildStats.ReadIOs/WriteIOs.
//
// For identical options, BuildExternal produces exactly the same label
// sets as Build; the test suite enforces this equivalence.
func BuildExternal(g *graph.Graph, opt Options) (*label.Index, BuildStats, error) {
	run, err := runExternal(g, opt)
	if err != nil {
		return nil, BuildStats{}, err
	}
	defer run.cleanup()
	x, err := run.ex.index()
	if err != nil {
		return nil, BuildStats{}, err
	}
	x.SetPerm(run.perm)
	return x, run.stats(x.Entries()), nil
}

// LabelFiles exposes a finished external build's sorted label record
// files to consumers that stream the labels straight into another
// on-disk layout (shard emission) instead of materializing a
// label.Index. The files live in the build's temp directory and are
// deleted when the BuildExternalStream callback returns.
type LabelFiles struct {
	N        int32
	Directed bool
	Weighted bool
	// Perm maps original vertex ids to ranks (rank 0 = highest).
	Perm []int32
	// Cfg is the extio configuration the record files were written with.
	Cfg extio.Config
	// OutOwnerPath holds (owner, pivot, dist) records sorted by
	// (owner, pivot), both ids in rank space. For undirected graphs the
	// single label family lives here and InOwnerPath is empty.
	OutOwnerPath string
	InOwnerPath  string
}

// BuildExternalStream runs the external builder and hands the final
// sorted label files to fn instead of loading them into a label.Index:
// the full index is never materialized in RAM, which is what makes
// shard construction for indexes larger than one machine's memory
// feasible. The files (and their temp directory) are reclaimed as soon
// as fn returns.
func BuildExternalStream(g *graph.Graph, opt Options, fn func(*LabelFiles) error) (BuildStats, error) {
	run, err := runExternal(g, opt)
	if err != nil {
		return BuildStats{}, err
	}
	defer run.cleanup()
	entries, err := countRecords(run.ex.outOwner, run.ex.cfg)
	if err != nil {
		return BuildStats{}, err
	}
	lf := &LabelFiles{
		N:            g.N(),
		Directed:     g.Directed(),
		Weighted:     g.Weighted(),
		Perm:         run.perm,
		Cfg:          run.ex.cfg,
		OutOwnerPath: run.ex.outOwner,
	}
	if g.Directed() {
		lf.InOwnerPath = run.ex.inOwner
		inEntries, err := countRecords(run.ex.inOwner, run.ex.cfg)
		if err != nil {
			return BuildStats{}, err
		}
		entries += inEntries
	}
	if err := fn(lf); err != nil {
		return BuildStats{}, err
	}
	return run.stats(entries), nil
}

// extRun is a completed engine run: final label files on disk, ready to
// be indexed or streamed. cleanup releases the temp directory.
type extRun struct {
	ex      *extEngine
	perm    []int32
	counter *extio.Counter
	iters   int
	start   time.Time
	cleanup func()
}

func (r *extRun) stats(entries int64) BuildStats {
	return BuildStats{
		Method:          r.ex.opt.Method,
		Iterations:      r.iters,
		Workers:         1, // the external builder is serial by design
		Entries:         entries,
		Duration:        time.Since(r.start),
		PerIteration:    r.ex.iters,
		ReadIOs:         r.counter.Reads(),
		WriteIOs:        r.counter.Writes(),
		TotalCandidates: r.ex.totalCandidates,
		TotalPruned:     r.ex.totalPruned,
	}
}

// runExternal ranks the graph and drives the engine to its fixpoint.
func runExternal(g *graph.Graph, opt Options) (*extRun, error) {
	opt = opt.withDefaults(g.Directed())
	if opt.CheckpointDir != "" || opt.Resume {
		return nil, fmt.Errorf("core: checkpointing is in-memory-builder only (CheckpointDir/Resume set on BuildExternal)")
	}
	start := time.Now()
	ranked, perm, err := rankGraph(g, opt)
	if err != nil {
		return nil, fmt.Errorf("core: ranking failed: %w", err)
	}
	dir, err := os.MkdirTemp(opt.TempDir, "hopdb-ext-*")
	if err != nil {
		return nil, err
	}
	counter := &extio.Counter{}
	cfg := extio.Config{
		BlockRecords:  opt.BlockSize,
		MemoryRecords: opt.MemoryBudget,
		Dir:           dir,
		Counter:       counter,
	}
	ex := &extEngine{g: ranked, opt: opt, cfg: cfg, dir: dir}
	if err := ex.initialize(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	iters, err := ex.run()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &extRun{
		ex:      ex,
		perm:    perm,
		counter: counter,
		iters:   iters,
		start:   start,
		cleanup: func() { os.RemoveAll(dir) },
	}, nil
}

// extEngine holds the label files of the external builder. All files
// contain extio.Records sorted by (K1, K2).
type extEngine struct {
	g   *graph.Graph
	opt Options
	cfg extio.Config
	dir string

	outOwner string // out-entries as (owner, pivot, dist)
	outPivot string // out-entries as (pivot, owner, dist)
	inOwner  string // in-entries as (owner, pivot, dist)
	inPivot  string // in-entries as (pivot, owner, dist)
	prevOut  string // previous iteration's new out-entries by owner
	prevIn   string
	adjIn    string // (u, x, w) for each edge x->u, sorted by u
	adjOut   string // (v, y, w) for each edge v->y, sorted by v

	iters           []IterStats
	totalCandidates int64
	totalPruned     int64
	seq             int
}

func (e *extEngine) path(name string) string {
	e.seq++
	return filepath.Join(e.dir, fmt.Sprintf("%s.%d", name, e.seq))
}

// initialize writes the edge-derived label files and adjacency files.
func (e *extEngine) initialize() error {
	directed := e.g.Directed()
	var initOut, initIn, adjIn, adjOut []extio.Record
	n := e.g.N()
	for u := int32(0); u < n; u++ {
		adj := e.g.OutNeighbors(u)
		ws := e.g.OutWeights(u)
		for i, v := range adj {
			w := uint32(1)
			if ws != nil {
				w = uint32(ws[i])
			}
			// Adjacency files: in-edges of v keyed by v; out-edges of
			// u keyed by u.
			adjIn = append(adjIn, extio.Record{K1: v, K2: u, V: w})
			adjOut = append(adjOut, extio.Record{K1: u, K2: v, V: w})
			if v < u {
				initOut = append(initOut, extio.Record{K1: u, K2: v, V: w})
			} else if directed {
				initIn = append(initIn, extio.Record{K1: v, K2: u, V: w})
			}
		}
	}
	extio.SortRecords(adjIn)
	extio.SortRecords(adjOut)
	extio.SortRecords(initOut)
	extio.SortRecords(initIn)

	write := func(name string, recs []extio.Record) (string, error) {
		p := e.path(name)
		return p, extio.WriteAll(p, e.cfg, recs)
	}
	var err error
	if e.adjIn, err = write("adj.in", adjIn); err != nil {
		return err
	}
	if e.adjOut, err = write("adj.out", adjOut); err != nil {
		return err
	}
	if e.outOwner, err = write("out.owner", initOut); err != nil {
		return err
	}
	if e.prevOut, err = write("prev.out", initOut); err != nil {
		return err
	}
	byPivot := make([]extio.Record, len(initOut))
	for i, r := range initOut {
		byPivot[i] = extio.Record{K1: r.K2, K2: r.K1, V: r.V}
	}
	extio.SortRecords(byPivot)
	if e.outPivot, err = write("out.pivot", byPivot); err != nil {
		return err
	}
	if e.inOwner, err = write("in.owner", initIn); err != nil {
		return err
	}
	if e.prevIn, err = write("prev.in", initIn); err != nil {
		return err
	}
	byPivot = byPivot[:0]
	for _, r := range initIn {
		byPivot = append(byPivot, extio.Record{K1: r.K2, K2: r.K1, V: r.V})
	}
	extio.SortRecords(byPivot)
	e.inPivot, err = write("in.pivot", byPivot)
	return err
}

// run executes iterations until fixpoint, returning the iteration count.
func (e *extEngine) run() (int, error) {
	iter := 0
	for {
		if e.opt.MaxIterations > 0 && iter >= e.opt.MaxIterations {
			return iter, nil
		}
		iter++
		start := time.Now()
		reads, writes := e.cfg.Counter.Reads(), e.cfg.Counter.Writes()
		stepping := steppingIterationFor(e.opt, iter)

		prevSize, err := countRecords(e.prevOut, e.cfg)
		if err != nil {
			return iter, err
		}
		pin, err := countRecords(e.prevIn, e.cfg)
		if err != nil {
			return iter, err
		}
		prevSize += pin

		// Candidate generation (Algorithm 2 as sorted merge joins). For
		// undirected graphs the single label family plays both roles,
		// so Rule 1 partners come from the out file itself.
		partnerOwner := e.inOwner
		witnessSide := e.inOwner
		if !e.g.Directed() {
			partnerOwner = e.outOwner
			witnessSide = e.outOwner
		}
		candOut := e.path("cand.out")
		raw, err := e.generateSide(candOut, e.prevOut, partnerOwner, e.outPivot, e.adjIn, stepping)
		if err != nil {
			return iter, err
		}
		candIn := e.path("cand.in")
		if e.g.Directed() {
			r2, err := e.generateSide(candIn, e.prevIn, e.outOwner, e.inPivot, e.adjOut, stepping)
			if err != nil {
				return iter, err
			}
			raw += r2
		} else {
			if err := extio.WriteAll(candIn, e.cfg, nil); err != nil {
				return iter, err
			}
		}

		// Sort candidates, keeping the minimum distance per pair.
		dedupOut, err := extio.SortUnique(candOut, e.cfg)
		if err != nil {
			return iter, err
		}
		dedupIn, err := extio.SortUnique(candIn, e.cfg)
		if err != nil {
			return iter, err
		}
		candidates := dedupOut + dedupIn
		if e.opt.MaxCandidates > 0 && candidates > e.opt.MaxCandidates {
			return iter, fmt.Errorf("core: iteration %d produced %d candidates (budget %d): %w",
				iter, candidates, e.opt.MaxCandidates, ErrCandidateBudget)
		}

		// Pruning (block nested loop).
		var prunedCount int64
		newOut := e.path("new.out")
		newIn := e.path("new.in")
		if e.opt.DisablePruning {
			p, err := e.dropNonImprovingExt(candOut, e.outOwner, newOut)
			if err != nil {
				return iter, err
			}
			prunedCount += p
			p, err = e.dropNonImprovingExt(candIn, e.inOwner, newIn)
			if err != nil {
				return iter, err
			}
			prunedCount += p
		} else {
			p, err := e.prune(candOut, e.outOwner, witnessSide, newOut)
			if err != nil {
				return iter, err
			}
			prunedCount += p
			p, err = e.prune(candIn, e.inOwner, e.outOwner, newIn)
			if err != nil {
				return iter, err
			}
			prunedCount += p
		}
		os.Remove(candOut)
		os.Remove(candIn)

		survivors, err := countRecords(newOut, e.cfg)
		if err != nil {
			return iter, err
		}
		sIn, err := countRecords(newIn, e.cfg)
		if err != nil {
			return iter, err
		}
		survivors += sIn

		// Merge survivors into the four sorted label files.
		if err := e.mergeInto(&e.outOwner, newOut, false); err != nil {
			return iter, err
		}
		if err := e.mergeInto(&e.outPivot, newOut, true); err != nil {
			return iter, err
		}
		if err := e.mergeInto(&e.inOwner, newIn, false); err != nil {
			return iter, err
		}
		if err := e.mergeInto(&e.inPivot, newIn, true); err != nil {
			return iter, err
		}
		os.Remove(e.prevOut)
		os.Remove(e.prevIn)
		e.prevOut = newOut
		e.prevIn = newIn

		e.totalCandidates += candidates
		e.totalPruned += prunedCount
		if e.opt.CollectStats {
			size, err := countRecords(e.outOwner, e.cfg)
			if err != nil {
				return iter, err
			}
			szIn, err := countRecords(e.inOwner, e.cfg)
			if err != nil {
				return iter, err
			}
			e.iters = append(e.iters, IterStats{
				Iteration:  iter,
				Stepping:   stepping,
				Raw:        raw,
				Candidates: candidates,
				Pruned:     prunedCount,
				Survivors:  survivors,
				PrevSize:   prevSize,
				LabelSize:  size + szIn,
				Duration:   time.Since(start),
				ReadIOs:    e.cfg.Counter.Reads() - reads,
				WriteIOs:   e.cfg.Counter.Writes() - writes,
			})
		}
		if survivors == 0 {
			return iter, nil
		}
	}
}

func steppingIterationFor(opt Options, iter int) bool {
	switch opt.Method {
	case Stepping:
		return true
	case Doubling:
		return false
	default:
		return iter <= opt.SwitchIteration
	}
}

func countRecords(path string, cfg extio.Config) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size() / extio.RecordBytes, nil
}

// generateSide produces the raw candidates for one label family. For the
// out side: prev entries (u, v, d) joined against paths x ~> u found as
// in-entries of owner u (Rule 1) and as out-entries with pivot u (Rule 2)
// — or against the in-adjacency of u when stepping. The in side passes
// its mirrored files and works identically by symmetry.
func (e *extEngine) generateSide(outPath, prevPath, partnerOwner, partnerPivot, adjPath string, stepping bool) (int64, error) {
	w, err := extio.NewWriter(outPath, e.cfg)
	if err != nil {
		return 0, err
	}
	emit := func(owner, pivot int32, dist uint32) error {
		return w.Append(extio.Record{K1: owner, K2: pivot, V: dist})
	}
	if stepping {
		err = joinByKey(prevPath, adjPath, e.cfg, func(prev, partners []extio.Record) error {
			for _, p := range prev {
				for _, a := range partners {
					// a = (u, x, w): edge x -> u; extend when x ranks
					// below the pivot v = p.K2.
					if a.K2 > p.K2 {
						if err := emit(a.K2, p.K2, p.V+a.V); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			w.Close()
			return 0, err
		}
	} else {
		// Rule 1 family: partner in-entries of the same owner.
		err = joinByKey(prevPath, partnerOwner, e.cfg, func(prev, partners []extio.Record) error {
			for _, p := range prev {
				i := sort.Search(len(partners), func(i int) bool { return partners[i].K2 > p.K2 })
				for _, a := range partners[i:] {
					if err := emit(a.K2, p.K2, p.V+a.V); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			w.Close()
			return 0, err
		}
		// Rule 2 family: partner out-entries whose pivot is the owner.
		err = joinByKey(prevPath, partnerPivot, e.cfg, func(prev, partners []extio.Record) error {
			for _, p := range prev {
				for _, a := range partners {
					// a = (pivot u, owner x, dist): id(x) > id(u) by
					// label invariant; candidate (x, v, d + dist).
					if err := emit(a.K2, p.K2, p.V+a.V); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			w.Close()
			return 0, err
		}
	}
	raw := w.Count()
	return raw, w.Close()
}

// joinByKey streams two files sorted by K1 and invokes fn once per key
// present in both, passing the full same-key groups.
func joinByKey(aPath, bPath string, cfg extio.Config, fn func(a, b []extio.Record) error) error {
	ra, err := extio.NewReader(aPath, cfg)
	if err != nil {
		return err
	}
	defer ra.Close()
	rb, err := extio.NewReader(bPath, cfg)
	if err != nil {
		return err
	}
	defer rb.Close()

	ga := newGrouper(ra)
	gb := newGrouper(rb)
	a, aok := ga.next()
	b, bok := gb.next()
	for aok && bok {
		switch {
		case a[0].K1 < b[0].K1:
			a, aok = ga.next()
		case a[0].K1 > b[0].K1:
			b, bok = gb.next()
		default:
			if err := fn(a, b); err != nil {
				return err
			}
			a, aok = ga.next()
			b, bok = gb.next()
		}
	}
	if err := ra.Err(); err != nil {
		return err
	}
	return rb.Err()
}

// grouper yields runs of records sharing K1 from a sorted reader.
type grouper struct {
	r       *extio.Reader
	pending extio.Record
	has     bool
	buf     []extio.Record
}

func newGrouper(r *extio.Reader) *grouper {
	g := &grouper{r: r}
	g.pending, g.has = r.Next()
	return g
}

func (g *grouper) next() ([]extio.Record, bool) {
	if !g.has {
		return nil, false
	}
	g.buf = g.buf[:0]
	key := g.pending.K1
	g.buf = append(g.buf, g.pending)
	for {
		rec, ok := g.r.Next()
		if !ok {
			g.has = false
			break
		}
		if rec.K1 != key {
			g.pending = rec
			break
		}
		g.buf = append(g.buf, rec)
	}
	return g.buf, true
}

// outerGroup is one owner's material resident during pruning: its label
// (sorted by pivot) and its surviving candidates.
type outerGroup struct {
	owner  int32
	lab    []extio.Record // (owner, pivot, dist) sorted by pivot
	cands  []extio.Record
	alive  []bool
	remain int
}

func (og *outerGroup) lookup(pivot int32) (uint32, bool) {
	if pivot == og.owner {
		return 0, true
	}
	i := sort.Search(len(og.lab), func(i int) bool { return og.lab[i].K2 >= pivot })
	if i < len(og.lab) && og.lab[i].K2 == pivot {
		return og.lab[i].V, true
	}
	return 0, false
}

// prune implements the paper's nested-loop pruning: the outer loop holds
// batches of candidates plus their owners' same-side labels; the inner
// loop streams the opposite-side label file (sorted by owner) looking for
// witnesses (u -> w, d1), (w -> v, d2) with d1 + d2 <= d. Survivors are
// written to outPath sorted by owner. Returns the pruned count.
func (e *extEngine) prune(candPath, sameSide, oppositeSide, outPath string) (int64, error) {
	w, err := extio.NewWriter(outPath, e.cfg)
	if err != nil {
		return 0, err
	}
	var pruned int64

	candReader, err := extio.NewReader(candPath, e.cfg)
	if err != nil {
		w.Close()
		return 0, err
	}
	defer candReader.Close()
	labReader, err := extio.NewReader(sameSide, e.cfg)
	if err != nil {
		w.Close()
		return 0, err
	}
	defer labReader.Close()

	candG := newGrouper(candReader)
	labG := newGrouper(labReader)
	labGroup, labOK := labG.next()

	budget := e.cfg.MemoryRecords / 2
	innerRecords, err := countRecords(oppositeSide, e.cfg)
	if err != nil {
		w.Close()
		return 0, err
	}
	chunk := make([]extio.Record, 0, min(int64(budget), innerRecords))
	var batch []*outerGroup
	batchRecords := 0

	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		// Same-pair pruning first: an existing entry at <= d answers
		// the candidate already (the trivial-pivot case).
		for _, og := range batch {
			for i, c := range og.cands {
				if d, ok := og.lookup(c.K2); ok && d <= c.V {
					og.alive[i] = false
					og.remain--
					pruned++
				}
			}
		}
		// Inner loop: stream the opposite-side file in chunks; for each
		// chunk, probe every still-alive candidate's pivot group.
		inner, err := extio.NewReader(oppositeSide, e.cfg)
		if err != nil {
			return err
		}
		chunk = chunk[:0]
		processChunk := func() {
			if len(chunk) == 0 {
				return
			}
			for _, og := range batch {
				if og.remain == 0 {
					continue
				}
				for i, c := range og.cands {
					if !og.alive[i] {
						continue
					}
					// Find the pivot's in-entries within this chunk.
					lo := sort.Search(len(chunk), func(k int) bool { return chunk[k].K1 >= c.K2 })
					for k := lo; k < len(chunk) && chunk[k].K1 == c.K2; k++ {
						wv := chunk[k].K2 // witness pivot w
						if dw, ok := og.lookup(wv); ok && dw+chunk[k].V <= c.V {
							og.alive[i] = false
							og.remain--
							pruned++
							break
						}
					}
				}
			}
		}
		for {
			rec, ok := inner.Next()
			if !ok {
				break
			}
			chunk = append(chunk, rec)
			if len(chunk) == budget {
				processChunk()
				chunk = chunk[:0]
			}
		}
		if err := inner.Err(); err != nil {
			inner.Close()
			return err
		}
		processChunk()
		if err := inner.Close(); err != nil {
			return err
		}
		// Emit survivors in owner order.
		for _, og := range batch {
			for i, c := range og.cands {
				if og.alive[i] {
					if err := w.Append(c); err != nil {
						return err
					}
				}
			}
		}
		batch = batch[:0]
		batchRecords = 0
		return nil
	}

	for {
		cands, ok := candG.next()
		if !ok {
			break
		}
		owner := cands[0].K1
		// Advance the label stream to this owner.
		for labOK && labGroup[0].K1 < owner {
			labGroup, labOK = labG.next()
		}
		og := &outerGroup{owner: owner}
		og.cands = append(og.cands, cands...)
		og.alive = make([]bool, len(og.cands))
		for i := range og.alive {
			og.alive[i] = true
		}
		og.remain = len(og.cands)
		if labOK && labGroup[0].K1 == owner {
			og.lab = append(og.lab, labGroup...)
		}
		batch = append(batch, og)
		batchRecords += len(og.cands) + len(og.lab)
		if batchRecords >= budget {
			if err := flush(); err != nil {
				w.Close()
				return 0, err
			}
		}
	}
	if err := candReader.Err(); err != nil {
		w.Close()
		return 0, err
	}
	if err := labReader.Err(); err != nil {
		w.Close()
		return 0, err
	}
	if err := flush(); err != nil {
		w.Close()
		return 0, err
	}
	return pruned, w.Close()
}

// dropNonImprovingExt is the pruning-disabled variant: only same-pair
// improvements survive.
func (e *extEngine) dropNonImprovingExt(candPath, sameSide, outPath string) (int64, error) {
	w, err := extio.NewWriter(outPath, e.cfg)
	if err != nil {
		return 0, err
	}
	var dropped int64
	candReader, err := extio.NewReader(candPath, e.cfg)
	if err != nil {
		w.Close()
		return 0, err
	}
	defer candReader.Close()
	labReader, err := extio.NewReader(sameSide, e.cfg)
	if err != nil {
		w.Close()
		return 0, err
	}
	defer labReader.Close()
	candG := newGrouper(candReader)
	labG := newGrouper(labReader)
	labGroup, labOK := labG.next()
	for {
		cands, ok := candG.next()
		if !ok {
			break
		}
		owner := cands[0].K1
		for labOK && labGroup[0].K1 < owner {
			labGroup, labOK = labG.next()
		}
		og := &outerGroup{owner: owner}
		if labOK && labGroup[0].K1 == owner {
			og.lab = labGroup
		}
		for _, c := range cands {
			if d, okL := og.lookup(c.K2); okL && d <= c.V {
				dropped++
				continue
			}
			if err := w.Append(c); err != nil {
				w.Close()
				return 0, err
			}
		}
	}
	for _, r := range []*extio.Reader{candReader, labReader} {
		if err := r.Err(); err != nil {
			w.Close()
			return 0, err
		}
	}
	return dropped, w.Close()
}

// mergeInto merges the new entries into a sorted label file, keeping the
// minimum distance per pair. When byPivot is true the new entries are
// first re-keyed to (pivot, owner) and sorted.
func (e *extEngine) mergeInto(filePath *string, newPath string, byPivot bool) error {
	src := newPath
	if byPivot {
		// Stream-swap the key columns, then sort externally; the new
		// entries can exceed the memory budget.
		src = e.path("rekeyed")
		r, err := extio.NewReader(newPath, e.cfg)
		if err != nil {
			return err
		}
		w, err := extio.NewWriter(src, e.cfg)
		if err != nil {
			r.Close()
			return err
		}
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			if err := w.Append(extio.Record{K1: rec.K2, K2: rec.K1, V: rec.V}); err != nil {
				r.Close()
				w.Close()
				return err
			}
		}
		if err := r.Err(); err != nil {
			w.Close()
			return err
		}
		r.Close()
		if err := w.Close(); err != nil {
			return err
		}
		// Survivors are unique per pair, so the dedup keeps them all.
		if _, err := extio.SortUnique(src, e.cfg); err != nil {
			return err
		}
		defer os.Remove(src)
	}
	merged := e.path("merged")
	if _, err := extio.MergeUnique([]string{*filePath, src}, merged, e.cfg); err != nil {
		return err
	}
	os.Remove(*filePath)
	*filePath = merged
	return nil
}

// index loads the final label files into a label.Index.
func (e *extEngine) index() (*label.Index, error) {
	x := label.NewIndex(e.g.N(), e.g.Directed(), e.g.Weighted())
	load := func(path string, side [][]label.Entry) error {
		r, err := extio.NewReader(path, e.cfg)
		if err != nil {
			return err
		}
		defer r.Close()
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			side[rec.K1] = append(side[rec.K1], label.Entry{Pivot: rec.K2, Dist: rec.V})
		}
		return r.Err()
	}
	if err := load(e.outOwner, x.Out); err != nil {
		return nil, err
	}
	if e.g.Directed() {
		if err := load(e.inOwner, x.In); err != nil {
			return nil, err
		}
	}
	return x, nil
}
