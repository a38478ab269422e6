package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	hopdb "repro"
	"repro/internal/bitparallel"
	"repro/internal/core"
	"repro/internal/diskidx"
	"repro/internal/label"
	"repro/internal/order"
)

// Probe sizes of the traced run. Per-layer metrics have no bound, so
// they are measured with less repetition than the end-to-end ones.
const (
	probePass   = 1 << 18 // queries per timed kernel or backend pass
	probePasses = 3
	probeWarm   = 1 << 16
	probeBlock  = 1 << 10 // queries per span inside a traced pass
	diskQueries = 1 << 14
	batchProbe  = 1 << 14 // pairs per DistanceBatchInto call
	loadRepeats = 5       // timed loads of each file format
	bpRoots     = 64
)

// traced holds what the traced run's stages hand to each other.
type traced struct {
	tr     *tracer
	nested *label.Index
	flat   *label.FlatIndex
	ck     *label.CompactIndex // nil when the labels are not encodable

	flatNS, compactNS float64
	queryOverheadPct  float64
}

// spanned runs fn inside a span and returns its wall time in seconds.
func (t *traced) spanned(layer, name string, fn func() error) (float64, error) {
	id := t.tr.start(layer, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	t.tr.end(id)
	return d, err
}

// heapSampler polls HeapInuse every 10 ms and remembers the peak.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > h.peak {
				h.peak = ms.HeapInuse
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler and returns the peak it saw, in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// tracedBuild decomposes hopdb.Build into the calls it makes — rank,
// construct (serial, then parallel), freeze, compact — and times each;
// the external builder runs on the same graph as the baseline for
// "external is a storage choice".
func (lc *lifecycle) tracedBuild(t *traced) error {
	g := lc.in.g
	m := lc.metrics

	d, err := t.spanned("gen", "generate", func() error {
		_, err := lc.w.Graph(lc.cfg.Scale)
		return err
	})
	if err != nil {
		return err
	}
	m["gen.generate_ms"] = d * 1e3

	// core.Build's default ranking: degree, or the in*out degree product
	// for directed graphs.
	strategy := order.ByDegree
	if g.Directed() {
		strategy = order.ByDegreeProduct
	}
	var (
		ranked = g
		perm   []int32
	)
	d, err = t.spanned("order", "rank", func() error {
		var err error
		ranked, perm, err = order.Apply(g, strategy)
		return err
	})
	if err != nil {
		return fmt.Errorf("order.Apply: %w", err)
	}
	m["order.rank_ms"] = d * 1e3

	var serial *label.Index
	d, err = t.spanned("core", "build_serial", func() error {
		var err error
		serial, _, err = core.BuildRanked(ranked, core.Options{Parallelism: 1})
		return err
	})
	if err != nil {
		return fmt.Errorf("core.BuildRanked serial: %w", err)
	}
	m["core.build_serial_s"] = d

	var (
		st     core.BuildStats
		before runtime.MemStats
		after  runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()
	d, err = t.spanned("core", "build_parallel", func() error {
		var err error
		t.nested, st, err = core.BuildRanked(ranked, core.Options{Parallelism: lc.procs, CollectStats: true})
		return err
	})
	peak := sampler.Stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("core.BuildRanked parallel: %w", err)
	}
	lc.chk.expect(serial.Equal(t.nested), "parallel build differs from the serial build")
	serial = nil
	m["core.build_parallel_s"] = d
	m["core.parallel_speedup"] = m["core.build_serial_s"] / d
	m["core.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	m["core.heap_peak_mb"] = float64(peak) / 1e6
	m["core.iterations"] = float64(st.Iterations)
	var raw, survivors int64
	var iterMax, step, double float64
	for _, it := range st.PerIteration {
		raw += it.Raw
		survivors += it.Survivors
		s := it.Duration.Seconds()
		iterMax = max(iterMax, s)
		if it.Stepping {
			step += s
		} else {
			double += s
		}
	}
	m["core.iter_max_s"], m["core.iter_step_s"], m["core.iter_double_s"] = iterMax, step, double
	m["core.raw_candidates"] = float64(raw)
	m["core.candidates"] = float64(st.TotalCandidates)
	m["core.pruned"] = float64(st.TotalPruned)
	m["core.survivors"] = float64(survivors)
	if raw > 0 {
		m["core.dedup_ratio"] = float64(st.TotalCandidates) / float64(raw)
	}
	if st.TotalCandidates > 0 {
		m["core.prune_ratio"] = float64(st.TotalPruned) / float64(st.TotalCandidates)
	}
	m["core.candidates_per_s"] = float64(st.TotalCandidates) / d
	t.nested.SetPerm(perm)

	d, _ = t.spanned("label", "freeze", func() error {
		t.flat = label.FreezeParallel(t.nested, lc.procs)
		return nil
	})
	m["label.freeze_ms"] = d * 1e3
	d, _ = t.spanned("label", "compact_from", func() error {
		if ck, ok := label.CompactFrom(t.flat); ok {
			t.ck = ck
		}
		return nil
	})
	m["label.compact_from_ms"] = d * 1e3
	lc.in.truth.check(t.nested.Distance, "decomposed build", lc.chk)
	lc.notes["entries"] = t.flat.Entries()

	var ext core.BuildStats
	d, err = t.spanned("core", "build_external", func() error {
		var err error
		_, ext, err = core.BuildExternal(g, core.Options{TempDir: lc.cfg.Dir})
		return err
	})
	if err != nil {
		return fmt.Errorf("core.BuildExternal: %w", err)
	}
	m["core.external_s"] = d
	m["extio.read_ios"] = float64(ext.ReadIOs)
	m["extio.write_ios"] = float64(ext.WriteIOs)
	lc.chk.expect(ext.Entries == st.Entries, "external build has %d entries, in-memory build %d", ext.Entries, st.Entries)
	return nil
}

// timedLoads runs load loadRepeats times, each inside a span, and
// returns the median wall time in milliseconds.
func (t *traced) timedLoads(layer, name string, load func() error) (float64, error) {
	var ms []float64
	for i := 0; i < loadRepeats; i++ {
		d, err := t.spanned(layer, name, load)
		if err != nil {
			return 0, fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		ms = append(ms, d*1e3)
	}
	return median(ms), nil
}

// writeFile creates path, hands it to write and closes it.
func writeFile(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStorage writes the index in each file format and times each way
// of loading it back.
func (lc *lifecycle) tracedStorage(t *traced) error {
	m := lc.metrics
	lc.idxPath = filepath.Join(lc.cfg.Dir, "index.idx")
	d, err := t.spanned("label", "write", func() error {
		return writeFile(lc.idxPath, func(f *os.File) error { return t.flat.Write(f) })
	})
	if err != nil {
		return fmt.Errorf("FlatIndex.Write: %w", err)
	}
	m["label.write_ms"] = d * 1e3
	if m["label.load_flat_ms"], err = t.timedLoads("label", "load_flat", func() error {
		_, err := label.LoadFlatFile(lc.idxPath)
		return err
	}); err != nil {
		return err
	}
	if m["label.mmap_ms"], err = t.timedLoads("label", "mmap", func() error {
		x, err := label.MmapFlat(lc.idxPath)
		if err != nil {
			return err
		}
		return x.Close()
	}); err != nil {
		return err
	}
	hdx3 := filepath.Join(lc.cfg.Dir, "index.cidx")
	if err := writeFile(hdx3, func(f *os.File) error { return t.flat.WriteCompact(f) }); err != nil {
		return fmt.Errorf("FlatIndex.WriteCompact: %w", err)
	}
	if m["label.load_compact_ms"], err = t.timedLoads("label", "load_compact", func() error {
		_, err := label.LoadCompactFile(hdx3)
		return err
	}); err != nil {
		return err
	}
	if st, err := os.Stat(hdx3); err == nil {
		m["label.hdx3_file_bytes"] = float64(st.Size())
	}
	m["label.flat_bytes"] = float64(t.flat.SizeBytes())
	if t.ck != nil {
		m["label.compact_bytes"] = float64(t.ck.SizeBytes())
	}
	return nil
}

// kernelPasses times dist over the uniform pool — a warm pass, then
// probePasses timed passes, each one span — and returns the median
// per-query nanoseconds. Every pass must reproduce want, the checksum of
// the finite distances (0 skips the check on the first kernel).
func (lc *lifecycle) kernelPasses(t *traced, layer, name string, dist func(s, v int32) uint32, want *uint64) float64 {
	pool := lc.in.uniform
	mask := len(pool.pairs) - 1
	pass := func(n int) (float64, uint64) {
		var sum uint64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p := pool.pairs[i&mask]
			if d := dist(p.S, p.T); d != hopdb.Infinity {
				sum += uint64(d)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), sum
	}
	pass(lc.n(probeWarm))
	var ns []float64
	for i := 0; i < probePasses; i++ {
		id := t.tr.start(layer, name)
		v, sum := pass(lc.n(probePass))
		t.tr.end(id)
		ns = append(ns, v)
		if *want == 0 {
			*want = sum
		}
		lc.chk.expect(sum == *want, "%s.%s: distance checksum %d, other kernels gave %d", layer, name, sum, *want)
	}
	return median(ns)
}

// tracedKernels runs every kernel on the same pair pool and counts the
// work a query does, independent of how fast a kernel does it.
func (lc *lifecycle) tracedKernels(t *traced) {
	m := lc.metrics
	var want uint64
	t.flatNS = lc.kernelPasses(t, "label", "flat_pass", t.flat.Distance, &want)
	m["label.flat_ns"] = t.flatNS
	m["label.nested_ns"] = lc.kernelPasses(t, "label", "nested_pass", t.nested.Distance, &want)
	if t.ck != nil {
		t.compactNS = lc.kernelPasses(t, "label", "compact_pass", t.ck.Distance, &want)
		m["label.compact_ns"] = t.compactNS
	}
	// Bit-parallel labels exist for undirected unweighted graphs only.
	if bp, err := bitparallel.Transform(t.nested, lc.in.g, bitparallel.Options{Roots: bpRoots}); err == nil {
		m["bitparallel.query_ns"] = lc.kernelPasses(t, "bitparallel", "pass", bp.Distance, &want)
	}

	// Row lengths over every label row of both families.
	f := t.flat
	var lens []float64
	for v := int32(0); v < f.N; v++ {
		lens = append(lens, float64(len(f.Out(v))))
		if f.Directed {
			lens = append(lens, float64(len(f.In(v))))
		}
	}
	sort.Float64s(lens)
	m["label.row_len_mean"] = mean(lens)
	m["label.row_len_p99"] = percentile(lens, 99)
	m["label.row_len_max"] = lens[len(lens)-1]

	// Replay of the two-pointer merge: entries stepped over per query.
	var scanned int64
	for _, p := range lc.in.uniform.pairs {
		rs, rt := p.S, p.T
		if f.Perm != nil {
			rs, rt = f.Perm[p.S], f.Perm[p.T]
		}
		if rs == rt {
			continue
		}
		a, b := f.Out(rs), f.In(rt)
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i].Pivot == b[j].Pivot:
				i++
				j++
			case a[i].Pivot < b[j].Pivot:
				i++
			default:
				j++
			}
		}
		scanned += int64(i + j)
	}
	m["label.entries_scanned_per_query"] = float64(scanned) / float64(len(lc.in.uniform.pairs))
}

// querierPasses times Querier.Distance over the uniform pool in
// alternating passes: bare, and with every probeBlock queries wrapped in
// a span — the granularity at which a 400 ns call can be traced at all.
// It returns both medians, per query. n must be a multiple of
// probeBlock. Every pass must reproduce the checksum of the reference
// answers.
func (lc *lifecycle) querierPasses(t *traced, q hopdb.Querier, name string, n int) (bare, spanned float64) {
	pool := lc.in.uniform
	mask := len(pool.pairs) - 1
	pass := func(n int, spans bool) float64 {
		var sum, want uint64
		t0 := time.Now()
		for lo := 0; lo < n; lo += probeBlock {
			var id int32
			if spans {
				id = t.tr.start("hopdb", name)
			}
			for i := lo; i < lo+probeBlock; i++ {
				p := pool.pairs[i&mask]
				if d, ok := q.Distance(p.S, p.T); ok {
					sum += uint64(d)
				}
			}
			if spans {
				t.tr.end(id)
			}
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
		for i := 0; i < n; i++ {
			if d := pool.expect[i&mask]; d != hopdb.Infinity {
				want += uint64(d)
			}
		}
		lc.chk.expect(sum == want, "%s: distance checksum %d, heap index gives %d", name, sum, want)
		return ns
	}
	pass(min(n, lc.n(probeWarm)), false)
	var bareNS, spannedNS []float64
	for i := 0; i < probePasses; i++ {
		bareNS = append(bareNS, pass(n, false))
		spannedNS = append(spannedNS, pass(n, true))
	}
	return median(bareNS), median(spannedNS)
}

// tracedBackends opens the saved index through every local backend and
// times each through the Querier contract.
func (lc *lifecycle) tracedBackends(t *traced) error {
	m := lc.metrics
	ref, err := hopdb.Open(lc.idxPath)
	if err != nil {
		return fmt.Errorf("hopdb.Open: %w", err)
	}
	lc.ref = ref
	lc.in.truth.check(viaQuerier(ref), "reference index", lc.chk)
	lc.in.uniform.fillExpect(ref)
	if lc.in.traffic != lc.in.uniform {
		lc.in.traffic.fillExpect(ref)
	}
	kernel := ref.Stats().Kernel
	lc.notes["kernel"] = string(kernel)

	untraced, heap := lc.querierPasses(t, ref, "heap_block", lc.n(probePass))
	m["hopdb.heap_ns"] = untraced
	t.queryOverheadPct = (heap - untraced) / untraced * 100
	active := t.flatNS
	if kernel == hopdb.KernelCompact {
		active = t.compactNS
	}
	m["hopdb.facade_self_ns"] = untraced - active

	mm, err := hopdb.Open(lc.idxPath, hopdb.WithMmap())
	if err != nil {
		return fmt.Errorf("hopdb.Open WithMmap: %w", err)
	}
	m["hopdb.mmap_ns"], _ = lc.querierPasses(t, mm, "mmap_block", lc.n(probePass))
	if err := mm.Close(); err != nil {
		return err
	}

	diskPath := filepath.Join(lc.cfg.Dir, "index.didx")
	if err := diskidx.Write(diskPath, t.nested); err != nil {
		return fmt.Errorf("diskidx.Write: %w", err)
	}
	dq, err := hopdb.Open(diskPath, hopdb.WithDisk(hopdb.DiskOptions{}))
	if err != nil {
		return fmt.Errorf("hopdb.Open WithDisk: %w", err)
	}
	dx := hopdb.Disk(dq)
	dx.ResetIOs()
	dn := lc.n(diskQueries)
	diskNS, _ := lc.querierPasses(t, dq, "disk_block", dn)
	m["hopdb.disk_us"] = diskNS / 1e3
	// A warm-up and probePasses pairs of passes went through the disk
	// index.
	m["diskidx.ios_per_query"] = float64(dx.IOs()) / float64(min(dn, lc.n(probeWarm))+2*probePasses*dn)
	if err := dq.Close(); err != nil {
		return err
	}

	pairs := lc.in.uniform.pairs[:lc.n(batchProbe)]
	results := make([]uint32, len(pairs))
	batchRate := func(workers int) float64 {
		ref.DistanceBatchInto(results, pairs, workers) // warm
		var rates []float64
		for i := 0; i < probePasses*4; i++ {
			id := t.tr.start("hopdb", "batch_into")
			t0 := time.Now()
			ref.DistanceBatchInto(results, pairs, workers)
			rates = append(rates, float64(len(pairs))/time.Since(t0).Seconds())
			t.tr.end(id)
		}
		for i, d := range results {
			if d != lc.in.uniform.expect[i] {
				lc.chk.fail("DistanceBatchInto(workers=%d): pair %d answered %d, point query says %d", workers, i, d, lc.in.uniform.expect[i])
			}
		}
		lc.chk.ok(int64(len(pairs)))
		return median(rates)
	}
	m["hopdb.batch1_pairs_per_s"] = batchRate(1)
	m["hopdb.batchN_pairs_per_s"] = batchRate(lc.procs)
	return nil
}
