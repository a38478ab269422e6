package main

import (
	"path/filepath"
	"runtime"
	"sort"
	"time"

	hopdb "repro"
)

// readerIdleBlocks is how many blocks the reader times before the writer
// starts.
const readerIdleBlocks = 8

// tracedUpdate applies the update schedule with a span around every op,
// beside a reader when there is a CPU for one, and returns the median
// insert latency.
func (lc *lifecycle) tracedUpdate(t *traced) (insertMS float64, err error) {
	m := lc.metrics
	withReader := runtime.NumCPU() >= 2
	ur, q, err := lc.applyUpdates(withReader, readerIdleBlocks, func(op edgeOp, run func() error) error {
		name := "insert"
		switch op.Class {
		case 'p':
			name = "delete_partial"
		case 'r':
			name = "delete_rebuild"
		}
		t.tr.beginRequest(true)
		id := t.tr.start("dynamic", name)
		err := run()
		t.tr.end(id)
		return err
	})
	if err != nil {
		return 0, err
	}
	defer q.Close()
	m["dynamic.open_ms"] = ur.OpenMS
	ins := append([]float64(nil), ur.InsertMS...)
	sort.Float64s(ins)
	// 200 to 600 inserts support p90 (ten or more samples beyond it),
	// not p99.
	m["dynamic.insert_p90_ms"] = percentile(ins, 90)
	m["dynamic.delete_partial_ms"] = median(ur.PartialMS)
	m["dynamic.delete_rebuild_ms"] = median(ur.RebuildMS)
	m["dynamic.partial_repairs"] = float64(ur.Stats.PartialRepairs)
	m["dynamic.full_rebuilds"] = float64(ur.Stats.FullRebuilds)
	m["dynamic.noops"] = float64(ur.Stats.NoOps)
	m["dynamic.epochs"] = float64(ur.Stats.Epoch)

	m["dynamic.reader_idle_ns"] = ur.ReaderIdle
	if len(ur.ReaderNS) > 0 {
		m["dynamic.reader_interference"] = median(ur.ReaderNS) / ur.ReaderIdle
	}

	t0 := time.Now()
	id := t.tr.start("dynamic", "save")
	err = q.(hopdb.Updatable).Save(filepath.Join(lc.cfg.Dir, "updated.idx"))
	t.tr.end(id)
	lc.chk.expect(err == nil, "Updatable.Save: %v", err)
	m["dynamic.save_ms"] = time.Since(t0).Seconds() * 1e3
	return median(ur.InsertMS), nil
}

// runTraced is the traced run: every phase of the lifecycle decomposed
// into calls on single layers, each inside a span recorded from the
// benchmark's side.
func (lc *lifecycle) runTraced(tr *tracer) error {
	var err error
	if lc.in, err = lc.generateInputs(); err != nil {
		return err
	}
	t := &traced{tr: tr}
	if err := lc.tracedBuild(t); err != nil {
		return err
	}
	if err := lc.tracedStorage(t); err != nil {
		return err
	}
	lc.tracedKernels(t)
	if err := lc.tracedBackends(t); err != nil {
		return err
	}
	defer lc.ref.Close()
	// The nested copy and the packed keys are only needed by the probes
	// above; the serve and update stages run on the opened index.
	t.nested, t.ck = nil, nil
	getOverhead, batchOverhead, err := lc.tracedServe(t)
	if err != nil {
		return err
	}
	tracedInsert, err := lc.tracedUpdate(t)
	if err != nil {
		return err
	}

	overhead := map[string]float64{
		"query_ns":     t.queryOverheadPct,
		"get_p50_us":   getOverhead,
		"batch_p50_us": batchOverhead,
	}
	if lc.w.Primary == "insert_ms" {
		// The same schedule once more with no span around the ops.
		bare, q, err := lc.applyUpdates(runtime.NumCPU() >= 2, 0, nil)
		if err != nil {
			return err
		}
		q.Close()
		overhead["insert_ms"] = (tracedInsert - median(bare.InsertMS)) / median(bare.InsertMS) * 100
	}
	lc.metrics["trace.overhead_pct"] = overhead[lc.w.Primary]
	lc.notes["trace_overhead_pct_by_metric"] = overhead
	return nil
}

// checkSpans verifies the span file's shape: every span closed, and
// every child of a request span inside its parent's interval.
func (lc *lifecycle) checkSpans(spans []span) {
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	bad := 0
	for _, s := range spans {
		ok := s.EndNS >= s.StartNS
		if p, has := byID[s.Parent]; ok && has {
			ok = s.StartNS >= p.StartNS && s.EndNS <= p.EndNS
		}
		if !ok {
			bad++
		}
	}
	lc.chk.expect(bad == 0, "%d of %d spans are unclosed or leave their parent's interval", bad, len(spans))
	lc.notes["spans"] = len(spans)
}
