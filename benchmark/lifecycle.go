package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	hopdb "repro"
	"repro/internal/graph"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	Workload workload
	Seed     int64
	Seconds  float64
	Trace    bool
	// Scale shrinks the workload graph; 1 for real runs, far less for
	// the smoke tests.
	Scale float64
	// Shrink right-shifts every fixed work count (pool sizes, pass
	// lengths, probe rounds); 0 for real runs, the smoke tests use more.
	Shrink uint
	// Dir is the run's scratch directory (index files, shard files,
	// external-build runs); the caller removes it.
	Dir string
}

// Repetition floors of the count-based phases.
const (
	setupRepeats = 3       // set-up is run this often; setup_s sums the fastest of each kind
	openWarm     = 3       // untimed opens before the timed ones
	openRepeats  = 25      // hopdb.Open + first query + Close, at least
	openBudget   = 0.03    // share of --seconds the open loop may use to repeat further
	openMax      = 60      // and the most it repeats
	queryPass    = 1 << 20 // Distance calls per timed pass
	readerBlock  = 1 << 16 // reader queries per timed block during updates
)

// inputs is everything generated from the seed before measuring starts.
type inputs struct {
	g          *graph.Graph
	truth      *truthSample
	uniform    *pairPool // uniform pairs: point queries, update reader
	traffic    *pairPool // serve traffic: uniform, or zipf over degree
	bodies     [][]byte  // traffic pre-encoded as 256-pair batches
	ops        []edgeOp
	finalTruth *truthSample // oracle on the graph after every op
}

// lifecycle runs one workload through build, save, open, query, serve
// and update, measuring the end-to-end metrics on the way.
type lifecycle struct {
	cfg     runConfig
	w       workload
	chk     *checker
	procs   int
	callers int
	in      *inputs
	idxPath string
	ref     hopdb.Querier // the opened heap index: reference for served answers
	metrics map[string]float64
	notes   map[string]any
	setupS  float64
}

func newLifecycle(cfg runConfig) (*lifecycle, error) {
	lc := &lifecycle{
		cfg:     cfg,
		w:       cfg.Workload,
		chk:     &checker{},
		procs:   runtime.GOMAXPROCS(0),
		metrics: make(map[string]float64),
		notes:   make(map[string]any),
	}
	// Never more goroutines issuing load than CPUs: beyond that the
	// numbers measure the scheduler, not the system.
	lc.callers = lc.procs
	if n := runtime.NumCPU(); lc.callers > n {
		lc.callers = n
	}
	if lc.callers < 1 {
		return nil, fmt.Errorf("no CPU to issue load from")
	}
	if lc.w.ReaderDuringUpdates && runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("workload %s runs a writer beside a reader and needs 2 CPUs, have %d", lc.w.Name, runtime.NumCPU())
	}
	return lc, nil
}

// n scales a fixed work count by the run's Shrink, never below 1024 (the
// span block and the truth sample both need that many).
func (lc *lifecycle) n(count int) int {
	return max(count>>lc.cfg.Shrink, min(count, 1<<10))
}

// share converts a phase share into a time budget.
func (lc *lifecycle) share(s float64) time.Duration {
	return time.Duration(s * lc.cfg.Seconds * float64(time.Second))
}

// timedSetup runs fn setupRepeats times and adds the quiet quartile of
// their wall times (of three: the fastest) to setup_s; every result but
// the last is handed to discard.
func timedSetup[T any](lc *lifecycle, fn func() (T, error), discard func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	lc.setupS += quiet(times, false)
	return last, nil
}

// generateInputs derives every input from the seed.
func (lc *lifecycle) generateInputs() (*inputs, error) {
	g, err := lc.w.Graph(lc.cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("generating graph: %w", err)
	}
	stream := func(k int64) *rand.Rand { return newStream(lc.cfg.Seed, k) }
	in := &inputs{g: g}
	in.truth = newTruthSample(g, stream(1))
	in.uniform = uniformPool(g.N(), lc.n(uniformPoolSize), in.truth, stream(2))
	in.traffic = in.uniform
	if lc.w.Zipf {
		in.traffic = zipfPool(g, lc.n(zipfPoolSize), stream(3))
	}
	in.bodies = batchBodies(in.traffic)
	if in.ops, err = newSchedule(g, lc.w.Schedule, stream(4)); err != nil {
		return nil, err
	}
	final, err := applySchedule(g, in.ops)
	if err != nil {
		return nil, fmt.Errorf("applying schedule to the oracle graph: %w", err)
	}
	in.finalTruth = newTruthSample(final, stream(5))
	return in, nil
}

// buildPhase times hopdb.Build (ranking + construction + freeze +
// compact enable) and saves the last index.
func (lc *lifecycle) buildPhase() error {
	budget := lc.share(lc.w.Share.Build)
	var (
		times []float64
		idx   *hopdb.Index
	)
	// The first build of a process is 10-40% slower than the ones after
	// it (the heap is still growing, its pages still faulting in), and a
	// median of three that includes it is the larger of the other two.
	// One untimed build first; the timed ones then agree within a few
	// percent.
	start := time.Now()
	for warm := true; len(times) < lc.w.Builds || time.Since(start) < budget; warm = false {
		t0 := time.Now()
		x, _, err := hopdb.Build(lc.in.g, hopdb.Options{Parallelism: lc.procs})
		if err != nil {
			return fmt.Errorf("hopdb.Build: %w", err)
		}
		d := time.Since(t0).Seconds()
		lc.in.truth.check(viaQuerier(x), "built index", lc.chk)
		idx = x
		if warm {
			lc.notes["warm_build_s"] = d
			start = time.Now()
			continue
		}
		times = append(times, d)
	}
	lc.metrics["build_s"] = quiet(times, false)
	lc.notes["builds"] = len(times)
	lc.notes["kernel"] = string(idx.Stats().Kernel)
	lc.notes["entries"] = idx.Entries()

	lc.idxPath = filepath.Join(lc.cfg.Dir, "index.idx")
	if err := idx.Save(lc.idxPath); err != nil {
		return fmt.Errorf("Index.Save: %w", err)
	}
	st, err := os.Stat(lc.idxPath)
	if err != nil {
		return err
	}
	lc.metrics["index_bytes"] = float64(st.Size())
	return nil
}

// heapInuse returns the heap bytes in use after a collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// timedOpens times hopdb.Open + first query + Close and returns the
// milliseconds of each timed repetition.
//
// One Open allocates about three times the index, so a concurrent
// collection starts inside most of them, and whether its mark phase lands
// on this call or the next moved open_ms by ±25% from run to run while the
// loader's own work repeats within 1%. The collector is therefore held
// off while an Open runs, and run between them.
func (lc *lifecycle) timedOpens() ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := lc.in.truth.pairs[0]
	var times []float64
	budget, start := lc.share(openBudget), time.Now()
	for i := 0; len(times) < openRepeats || (time.Since(start) < budget && len(times) < openMax); i++ {
		runtime.GC()
		t0 := time.Now()
		q, err := hopdb.Open(lc.idxPath)
		if err != nil {
			return nil, fmt.Errorf("hopdb.Open: %w", err)
		}
		d, _ := q.Distance(first.S, first.T)
		err = q.Close()
		if i >= openWarm {
			times = append(times, time.Since(t0).Seconds()*1e3)
		}
		lc.chk.expect(err == nil && d == lc.in.truth.dist[0], "opened index: d(%d,%d)=%d, oracle says %d (close: %v)", first.S, first.T, d, lc.in.truth.dist[0], err)
	}
	return times, nil
}

// openPhase measures open_ms, then opens the reference index and
// measures what it costs a server to hold.
func (lc *lifecycle) openPhase() error {
	times, err := lc.timedOpens()
	if err != nil {
		return err
	}
	lc.metrics["open_ms"] = quiet(times, false)
	lc.notes["opens"] = len(times)

	runtime.GC() // settle garbage from the build phase before the baseline
	before := heapInuse()
	ref, err := hopdb.Open(lc.idxPath)
	if err != nil {
		return fmt.Errorf("hopdb.Open: %w", err)
	}
	after := heapInuse()
	lc.ref = ref
	lc.metrics["open_heap_mb"] = float64(int64(after)-int64(before)) / 1e6
	lc.in.truth.check(viaQuerier(ref), "reference index", lc.chk)
	lc.in.uniform.fillExpect(ref)
	if lc.in.traffic != lc.in.uniform {
		lc.in.traffic.fillExpect(ref)
	}
	return nil
}

// queryPassOver answers n pool pairs in order through q and returns the
// per-query nanoseconds and the sum of the finite distances.
func queryPassOver(q hopdb.Querier, pool *pairPool, n int) (float64, uint64) {
	var sum uint64
	mask := len(pool.pairs) - 1 // pool sizes are powers of two
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := pool.pairs[i&mask]
		if d, ok := q.Distance(p.S, p.T); ok {
			sum += uint64(d)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), sum
}

// newFixture starts the workload's serving tier and warms it.
func (lc *lifecycle) newFixture(tr *tracer) (*serveFixture, error) {
	var (
		fx  *serveFixture
		err error
	)
	if lc.w.Sharded {
		dir, derr := os.MkdirTemp(lc.cfg.Dir, "shards-")
		if derr != nil {
			return nil, derr
		}
		fx, err = newShardedFixture(lc.in.g, dir, tr)
	} else {
		fx = newSingleFixture(lc.ref, lc.w.CacheEntries, tr)
	}
	if err != nil {
		return nil, err
	}
	warmServe(&inprocTransport{h: fx.handler}, benchHost, lc.in.traffic, lc.in.bodies, lc.n(warmGets+lc.w.CacheEntries), warmBatches, lc.chk)
	return fx, nil
}

// getCallers is how many goroutines issue GETs. The sharded topology
// runs the router and four leaf servers in this same process, so one CPU
// is left to them: with every CPU issuing load the tail measures the
// scheduler's queue, not the fleet.
func (lc *lifecycle) getCallers() int {
	if lc.w.Sharded && lc.callers > 1 {
		return lc.callers - 1
	}
	return lc.callers
}

// loadPhase measures query_ns, get_* and batch_* in interleaved rounds:
// each round runs one slice of query passes, one GET segment and one
// batch segment, so a burst of interference shorter than the phase hits
// a few slices of every metric instead of every slice of one.
func (lc *lifecycle) loadPhase(fx *serveFixture) {
	rt := &inprocTransport{h: fx.handler}
	gets := newGetLoop(rt, benchHost, lc.in.traffic, lc.getCallers(), lc.chk, nil)
	batches := newBatchLoop(rt, benchHost, lc.in.traffic, lc.in.bodies, lc.chk, nil)
	slice := func(share float64) time.Duration { return lc.share(share) / segments }
	timeQueries := !lc.w.ReaderDuringUpdates

	var (
		perQuery         []float64
		getSegs, batSegs []segStat
		want             uint64
	)
	if timeQueries {
		_, want = queryPassOver(lc.ref, lc.in.uniform, lc.n(queryPass)) // warm
	}
	for round := 0; round < segments; round++ {
		for start := time.Now(); timeQueries && (len(perQuery) <= round || time.Since(start) < slice(lc.w.Share.Query)); {
			ns, sum := queryPassOver(lc.ref, lc.in.uniform, lc.n(queryPass))
			perQuery = append(perQuery, ns)
			lc.chk.expect(sum == want, "query pass %d: distance checksum %d, warm pass gave %d", len(perQuery), sum, want)
		}
		getSegs = append(getSegs, gets.segment(slice(lc.w.Share.Get)))
		batSegs = append(batSegs, batches.segment(slice(lc.w.Share.Batch)))
	}
	if timeQueries {
		lc.metrics["query_ns"] = quiet(perQuery, false)
		lc.notes["query_passes"] = len(perQuery)
	}
	get, batch := summarize(getSegs), summarize(batSegs)
	lc.metrics["get_rps"] = get.PerSecond
	lc.metrics["get_p50_us"] = get.P50us
	lc.metrics["get_p99_us"] = get.P99us
	lc.notes["get_callers"] = lc.getCallers()
	lc.notes["get_samples"] = get.Samples
	lc.notes["get_segment_samples"] = get.SegmentN
	lc.notes["get_supported_tail"] = get.Tail
	lc.metrics["batch_pairs_per_s"] = batch.PerSecond * batchPairs
	lc.metrics["batch_p50_us"] = batch.P50us
	lc.notes["batch_samples"] = batch.Samples
}

// updateRun is what one application of the schedule measured.
type updateRun struct {
	InsertMS   []float64 // every insert's latency
	PartialMS  []float64 // 'p' deletes
	RebuildMS  []float64 // 'r' deletes
	TotalS     float64
	ReaderNS   []float64 // per-query time of each reader block
	Stats      hopdb.UpdateStats
	OpenMS     float64
	ReaderIdle float64 // per-query time before the writer starts, when measured
}

// applyUpdates opens the saved index for updates and applies the
// schedule, optionally beside a reader looping Distance over the
// uniform pool (which first times idleBlocks blocks alone). The final
// epoch is checked against the oracle on the final graph.
func (lc *lifecycle) applyUpdates(withReader bool, idleBlocks int, onOp func(op edgeOp, run func() error) error) (*updateRun, hopdb.Querier, error) {
	t0 := time.Now()
	q, err := hopdb.Open(lc.idxPath, hopdb.WithGraph(lc.in.g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
	if err != nil {
		return nil, nil, fmt.Errorf("hopdb.Open WithUpdates: %w", err)
	}
	ur := &updateRun{OpenMS: time.Since(t0).Seconds() * 1e3}
	u, ok := q.(hopdb.Updatable)
	if !ok {
		q.Close()
		return nil, nil, fmt.Errorf("index opened WithUpdates is not Updatable")
	}

	// The reader alone first, when asked: what the epoch pointer and the
	// scalar kernel cost with no writer beside them.
	var idle []float64
	for i := 0; i < idleBlocks; i++ {
		ns, _ := queryPassOver(q, lc.in.uniform, lc.n(readerBlock))
		idle = append(idle, ns)
	}
	ur.ReaderIdle = median(idle)

	var (
		stop   atomic.Bool
		reader sync.WaitGroup
	)
	if withReader {
		reader.Add(1)
		go func() {
			defer reader.Done()
			for !stop.Load() {
				ns, _ := queryPassOver(q, lc.in.uniform, lc.n(readerBlock))
				ur.ReaderNS = append(ur.ReaderNS, ns)
			}
		}()
	}

	start := time.Now()
	for _, op := range lc.in.ops {
		apply := func() error {
			if op.Insert {
				return u.InsertEdge(op.U, op.V, 1)
			}
			return u.DeleteEdge(op.U, op.V)
		}
		t := time.Now()
		if onOp != nil {
			err = onOp(op, apply)
		} else {
			err = apply()
		}
		ms := time.Since(t).Seconds() * 1e3
		lc.chk.expect(err == nil, "update op %c (%d,%d): %v", op.Class, op.U, op.V, err)
		switch op.Class {
		case 'i':
			ur.InsertMS = append(ur.InsertMS, ms)
		case 'p':
			ur.PartialMS = append(ur.PartialMS, ms)
		case 'r':
			ur.RebuildMS = append(ur.RebuildMS, ms)
		}
	}
	ur.TotalS = time.Since(start).Seconds()
	stop.Store(true)
	reader.Wait()
	ur.Stats = u.UpdateStats()
	lc.in.finalTruth.check(viaQuerier(q), "after updates", lc.chk)
	return ur, q, nil
}

// updatePhase applies the schedule (again from a fresh open while the
// budget lasts) and reports the median run.
func (lc *lifecycle) updatePhase() error {
	budget := lc.share(lc.w.Share.Update)
	var insertMS, totalS, readerNS []float64
	start := time.Now()
	for len(totalS) == 0 || time.Since(start)+time.Duration(totalS[0]*float64(time.Second)) < budget {
		ur, q, err := lc.applyUpdates(lc.w.ReaderDuringUpdates, 0, nil)
		if err != nil {
			return err
		}
		q.Close()
		insertMS = append(insertMS, median(ur.InsertMS))
		totalS = append(totalS, ur.TotalS)
		readerNS = append(readerNS, ur.ReaderNS...)
		lc.notes["update_stats"] = ur.Stats
	}
	lc.metrics["insert_ms"] = quiet(insertMS, false)
	lc.metrics["update_s"] = quiet(totalS, false)
	lc.notes["update_runs"] = len(totalS)
	if lc.w.ReaderDuringUpdates {
		lc.metrics["query_ns"] = quiet(readerNS, false)
		lc.notes["reader_blocks"] = len(readerNS)
	}
	return nil
}

// runEndToEnd is the untraced run: every end-to-end metric, no tracing
// wrapper anywhere.
func (lc *lifecycle) runEndToEnd() error {
	var err error
	if lc.in, err = timedSetup(lc, lc.generateInputs, nil); err != nil {
		return err
	}
	if err := lc.buildPhase(); err != nil {
		return err
	}
	if err := lc.openPhase(); err != nil {
		return err
	}
	defer lc.ref.Close()
	fx, err := timedSetup(lc, func() (*serveFixture, error) { return lc.newFixture(nil) }, func(fx *serveFixture) { fx.close() })
	if err != nil {
		return err
	}
	lc.loadPhase(fx)
	fx.close()
	if err := lc.updatePhase(); err != nil {
		return err
	}
	lc.metrics["setup_s"] = lc.setupS
	lc.metrics["peak_rss_mb"] = peakRSSMB()
	return nil
}
