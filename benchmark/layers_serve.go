package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hopdb "repro"
	"repro/client"
	"repro/internal/label"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Sizes of the serve-side probes.
const (
	codecRounds   = 20000 // encode/decode repetitions per codec probe
	jsonBatches   = 200   // JSON /v1/batch posts
	clientGets    = 20000 // client.Lookup calls
	clientBatches = 500   // client.BatchInto calls
	rowsProbe     = 64    // label rows per /v1/rows codec probe
	kneeLimitUS   = 5000  // open-loop p99 limit, microseconds
	maxInFlight   = 512   // open-loop requests in flight before a step counts as backlogged
	alternations  = 5     // bare/traced slices per closed loop
	openLoopShare = 0.04  // of --seconds, per step of the open-loop ladder
)

// openLoopRates is the open-loop ladder, requests per second.
var openLoopRates = []float64{4000, 8000, 16000, 24000}

// meanUS returns the mean total and self time of one aggregated span
// name, in microseconds.
func (lt layerTime) meanUS() (total, self float64) {
	if lt.Count == 0 {
		return 0, 0
	}
	n := float64(lt.Count)
	return float64(lt.TotalNS) / n / 1e3, float64(lt.SelfNS) / n / 1e3
}

// medianOf reduces the slices of one alternated loop to the median of
// one of their statistics.
func medianOf(segs []segStat, field func(segStat) float64) float64 {
	return median(pick(segs, field))
}

// tracedServe measures the serving tier with one traced caller: the same
// closed loops as the untraced run, once bare (for the overhead figure)
// and once through the span-recording wrappers, then the codec, client,
// cache-bypass and socket probes.
func (lc *lifecycle) tracedServe(t *traced) (getOverhead, batchOverhead float64, err error) {
	m := lc.metrics
	// Each closed loop runs twice (bare and traced), so each gets a
	// quarter of the phase's share; the side probes get an eighth.
	getDur, batchDur := lc.share(lc.w.Share.Get)/4, lc.share(lc.w.Share.Batch)/4
	probeDur := (getDur + batchDur) / 4

	bare, err := lc.newFixture(nil)
	if err != nil {
		return 0, 0, err
	}
	defer bare.close()
	bareRT := &inprocTransport{h: bare.handler}
	fx, err := lc.newFixture(t.tr)
	if err != nil {
		return 0, 0, err
	}
	defer fx.close()
	rt := &inprocTransport{h: fx.handler}
	layer := "server"
	if lc.w.Sharded {
		layer = "cluster"
	}

	// Bare and traced slices alternate, so drift over the phase (heap
	// growth, cache state, a noisy neighbour) lands on both sides of the
	// overhead figure instead of on whichever loop ran second.
	var bareGet, get, bareBatch, batch []segStat
	bareGets := newGetLoop(bareRT, benchHost, lc.in.traffic, 1, lc.chk, nil)
	tracedGets := newGetLoop(rt, benchHost, lc.in.traffic, 1, lc.chk, t.tr)
	from := t.tr.count()
	for i := 0; i < alternations; i++ {
		bareGet = append(bareGet, bareGets.segment(getDur/alternations))
		get = append(get, tracedGets.segment(getDur/alternations))
	}
	getTimes := selfTimes(t.tr.since(from))
	_, getSelf := getTimes[layer+".distance"].meanUS()
	m["hopdb.get_backend_us"], _ = getTimes["hopdb.distance"].meanUS()

	var before, after runtime.MemStats
	var rpcs0, rows0, fetch0 int64
	var allocs, allocBytes uint64
	if lc.w.Sharded {
		rpcs0, rows0 = fx.fleet.counters.rpcs.Load(), fx.fleet.counters.rowsBytes.Load()
		fetch0 = fx.router.Stats().RowFetches
	}
	bareBatches := newBatchLoop(bareRT, benchHost, lc.in.traffic, lc.in.bodies, lc.chk, nil)
	tracedBatches := newBatchLoop(rt, benchHost, lc.in.traffic, lc.in.bodies, lc.chk, t.tr)
	from = t.tr.count()
	for i := 0; i < alternations; i++ {
		bareBatch = append(bareBatch, bareBatches.segment(batchDur/alternations))
		runtime.ReadMemStats(&before)
		batch = append(batch, tracedBatches.segment(batchDur/alternations))
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	batchTimes := selfTimes(t.tr.since(from))
	_, batchSelf := batchTimes[layer+".batch"].meanUS()
	m["hopdb.batch_backend_us"], _ = batchTimes["hopdb.batch"].meanUS()
	m["server.shed"] = float64(lc.chk.shed.Load())

	p50 := func(segs []segStat) float64 {
		return quiet(pick(segs, func(s segStat) float64 { return s.P50us }), false)
	}
	getOverhead = (p50(get) - p50(bareGet)) / p50(bareGet) * 100
	batchOverhead = (p50(batch) - p50(bareBatch)) / p50(bareBatch) * 100
	lc.notes["traced_get_p50_us"], lc.notes["bare_get_p50_us"] = p50(get), p50(bareGet)
	lc.notes["traced_batch_p50_us"], lc.notes["bare_batch_p50_us"] = p50(batch), p50(bareBatch)

	if lc.w.Sharded {
		var batches float64
		for _, r := range batch {
			batches += float64(r.N)
		}
		fleet := fx.fleet
		m["cluster.router_self_us"] = batchSelf
		lc.notes["router_get_self_us"] = getSelf
		m["shard.build_s"] = fleet.BuildS
		m["shard.hub_bytes"] = float64(fleet.HubBytes)
		m["shard.leaf_bytes_max"] = float64(fleet.LeafMax)
		m["shard.open_ms"] = fleet.OpenMS
		m["cluster.leaf_rpcs_per_batch"] = float64(fleet.counters.rpcs.Load()-rpcs0) / batches
		m["cluster.rows_bytes_per_batch"] = float64(fleet.counters.rowsBytes.Load()-rows0) / batches
		m["cluster.row_fetches_per_batch"] = float64(fx.router.Stats().RowFetches-fetch0) / batches
		// MemStats are process-wide: the leaf servers' and the load
		// generator's allocations are in these two figures as well.
		m["cluster.allocs_per_batch"] = float64(allocs) / batches
		m["cluster.alloc_kb_per_batch"] = float64(allocBytes) / batches / 1e3
		m["cluster.batch_p90_us"] = medianOf(batch, func(s segStat) float64 { return s.P90us })
		m["cluster.batch_p99_us"] = medianOf(batch, func(s segStat) float64 { return s.P99us })
		m["server.leaf_rows_us"], _ = batchTimes["server.leaf_rows"].meanUS()
		m["server.leaf_batch_us"], _ = batchTimes["server.leaf_batch"].meanUS()
		hub, same, split := classifyPairs(fleet, lc.in.traffic.pairs)
		m["cluster.hub_local_ratio"], m["cluster.same_leaf_ratio"], m["cluster.split_ratio"] = hub, same, split
		// The algorithm/protocol split: what merging these 256 pairs on
		// the unsharded index costs, as a share of the batch's time.
		m["label.merge_share"] = batchPairs * t.flatNS / 1e3 / p50(batch)
		lc.rowsCodecProbe(fleet)
		lc.zipfOnFleet(fx, probeDur)
		return getOverhead, batchOverhead, nil
	}

	m["server.get_self_us"], m["server.batch_self_us"] = getSelf, batchSelf
	if cs := fx.srv.Stats().Cache; cs != nil {
		m["server.cache_hit_ratio"] = cs.HitRate
		m["server.cache_lookups"] = float64(cs.Hits + cs.Misses)
	}
	lc.wireProbe(bareRT)
	if err := lc.clientProbe(bareRT); err != nil {
		return 0, 0, err
	}
	// The bypass leg: same traffic, cache off. A cache change must not
	// move it.
	nocache := newSingleFixture(lc.ref, 0, nil)
	m["server.uncached_get_us"] = newGetLoop(&inprocTransport{h: nocache.handler}, benchHost, lc.in.traffic, 1, lc.chk, nil).segment(probeDur).P50us
	if err := lc.loopbackLeg(bare, p50(bareGet), probeDur); err != nil {
		return 0, 0, err
	}
	return getOverhead, batchOverhead, nil
}

// classifyPairs sorts pairs the way the router does — both ranks in the
// hub tier, both on one leaf, or split across owners — and returns the
// three shares (identical endpoints count for none).
func classifyPairs(f *shardFleet, pairs []hopdb.QueryPair) (hub, same, split float64) {
	var nh, ns, nx int
	h := f.Map.HubRanks
	for _, p := range pairs {
		rs, rt := f.Hub.Perm[p.S], f.Hub.Perm[p.T]
		switch {
		case rs == rt:
		case rs < h && rt < h:
			nh++
		case f.Map.Owner(rs) >= 0 && f.Map.Owner(rs) == f.Map.Owner(rt):
			ns++
		default:
			nx++
		}
	}
	n := float64(len(pairs))
	return float64(nh) / n, float64(ns) / n, float64(nx) / n
}

// rowsCodecProbe times the /v1/rows response codec on rowsProbe label
// rows of the first leaf, per row.
func (lc *lifecycle) rowsCodecProbe(f *shardFleet) {
	leaf, ok := f.leaves[0].(*shard.Shard)
	if !ok {
		return
	}
	var rows [][]label.Entry
	for r := leaf.Lo; r < leaf.Hi && len(rows) < rowsProbe; r++ {
		if row, ok := leaf.OutRowRanked(r); ok {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return
	}
	rounds := lc.n(codecRounds / 10)
	var buf []byte
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		buf = shard.AppendRowsResponse(buf[:0], rows)
	}
	lc.metrics["shard.rows_encode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(rows))
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		got, err := shard.DecodeRowsResponse(buf)
		if err != nil || len(got) != len(rows) {
			lc.chk.fail("rows codec round trip: %d rows, %v", len(got), err)
			break
		}
	}
	lc.metrics["shard.rows_decode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(rows))
	lc.chk.ok(1)
}

// zipfOnFleet sends serve-zipf's traffic through the same fleet: the hub
// tier used the way it was designed for.
func (lc *lifecycle) zipfOnFleet(fx *serveFixture, dur time.Duration) {
	pool := zipfPool(lc.in.g, lc.n(uniformPoolSize), newStream(lc.cfg.Seed, 6))
	pool.fillExpect(lc.ref)
	hub0, q0 := fx.router.Stats().HubLocal, fx.router.Stats().Queries
	st := newBatchLoop(&inprocTransport{h: fx.handler}, benchHost, pool, batchBodies(pool), lc.chk, nil).segment(dur)
	lc.metrics["cluster.zipf_pairs_per_s"] = st.PerSecond * batchPairs
	if q := fx.router.Stats().Queries - q0; q > 0 {
		lc.metrics["cluster.zipf_hub_local_ratio"] = float64(fx.router.Stats().HubLocal-hub0) / float64(q)
	}
}

// wireProbe times the binary batch codec on one 256-pair batch, and the
// same pairs posted as JSON.
func (lc *lifecycle) wireProbe(rt http.RoundTripper) {
	pool := lc.in.traffic
	pairs, want := pool.pairs[:batchPairs], pool.expect[:batchPairs]
	var (
		req, resp []byte
		gotPairs  []hopdb.QueryPair
		gotDists  []uint32
		err       error
	)
	rounds := lc.n(codecRounds)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		req = wire.AppendBatchRequest(req[:0], pairs)
		resp = wire.AppendBatchResponse(resp[:0], want)
	}
	lc.metrics["wire.batch_encode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds)
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		if gotPairs, err = wire.DecodeBatchRequest(gotPairs[:0], req); err != nil {
			break
		}
		if gotDists, err = wire.DecodeBatchResponse(gotDists[:0], resp); err != nil {
			break
		}
	}
	lc.metrics["wire.batch_decode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds)
	lc.chk.expect(err == nil && len(gotPairs) == batchPairs && len(gotDists) == batchPairs, "binary batch codec round trip: %v", err)

	type jsonPair [2]int32
	jp := make([]jsonPair, len(pairs))
	for i, p := range pairs {
		jp[i] = jsonPair{p.S, p.T}
	}
	body, _ := json.Marshal(jp)
	var us []float64
	for i := 0; i < lc.n(jsonBatches); i++ {
		t0 := time.Now()
		r, err := http.NewRequest(http.MethodPost, benchHost+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			lc.chk.expect(false, "JSON batch: %v", err)
			return
		}
		r.Header.Set("Content-Type", "application/json")
		res, err := rt.RoundTrip(r)
		if err != nil {
			lc.chk.expect(false, "JSON batch: %v", err)
			return
		}
		raw, _ := responseBytes(res)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		var out wire.BatchResult
		ok := res.StatusCode == http.StatusOK && json.Unmarshal(raw, &out) == nil && len(out.Results) == batchPairs
		for j := 0; ok && j < batchPairs; j++ {
			d := uint32(hopdb.Infinity)
			if out.Results[j].Distance != nil {
				d = *out.Results[j].Distance
			}
			ok = d == want[j]
		}
		lc.chk.expect(ok, "JSON batch: status %d, answers differ from the heap index", res.StatusCode)
	}
	lc.metrics["wire.json_batch_us"] = median(us)
}

// clientProbe drives repro/client over the in-process transport: the
// client-side share of a request.
func (lc *lifecycle) clientProbe(rt http.RoundTripper) error {
	c, err := client.New(benchHost, client.Options{HTTPClient: &http.Client{Transport: rt}, MaxAttempts: 1})
	if err != nil {
		return fmt.Errorf("client.New: %w", err)
	}
	defer c.Close()
	pool := lc.in.traffic
	gets, batches := lc.n(clientGets), lc.n(clientBatches)
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		k := i % len(pool.pairs)
		d, _, err := c.Lookup(pool.pairs[k].S, pool.pairs[k].T)
		if err != nil || d != pool.expect[k] {
			lc.chk.fail("client.Lookup(%d,%d) = %d, %v; heap index says %d", pool.pairs[k].S, pool.pairs[k].T, d, err, pool.expect[k])
		}
	}
	lc.chk.ok(int64(gets))
	lc.metrics["client.distance_us"] = float64(time.Since(t0).Nanoseconds()) / float64(gets) / 1e3
	results := make([]uint32, batchPairs)
	t0 = time.Now()
	for i := 0; i < batches; i++ {
		k := (i % (len(pool.pairs) / batchPairs)) * batchPairs
		got, err := c.BatchInto(results, pool.pairs[k:k+batchPairs])
		ok := err == nil && len(got) == batchPairs
		for j := 0; ok && j < batchPairs; j++ {
			ok = got[j] == pool.expect[k+j]
		}
		lc.chk.expect(ok, "client.BatchInto at pool offset %d: %v", k, err)
	}
	lc.metrics["client.batch_us"] = float64(time.Since(t0).Nanoseconds()) / float64(batches) / 1e3
	return nil
}

// loopbackLeg serves fx's handler on a real 127.0.0.1 socket and repeats
// the closed loop with one caller, then walks the open-loop ladder. On a
// two-core VM these numbers swing ±20% from run to run, which is why
// they are ungated.
func (lc *lifecycle) loopbackLeg(fx *serveFixture, inprocP50us float64, dur time.Duration) error {
	m := lc.metrics
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: fx.handler}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		hs.Serve(ln) // returns once Close is called below
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: maxInFlight, MaxConnsPerHost: maxInFlight}
	defer func() {
		transport.CloseIdleConnections()
		hs.Close()
		serving.Wait()
	}()
	base := "http://" + ln.Addr().String()
	pool := lc.in.traffic

	get := newGetLoop(transport, base, pool, 1, lc.chk, nil).segment(dur)
	m["net.loopback_get_p50_us"] = get.P50us
	m["net.loopback_get_rps"] = get.PerSecond
	m["net.transport_self_us"] = get.P50us - inprocP50us
	batch := newBatchLoop(transport, base, pool, lc.in.bodies, lc.chk, nil).segment(dur)
	m["net.loopback_batch_pairs_per_s"] = batch.PerSecond * batchPairs

	// An unrecorded step first, so the ladder does not pay for opening
	// the connections it reuses.
	step := lc.share(openLoopShare)
	openLoop(transport, base, pool, openLoopRates[0], step/2, lc.chk)
	var late []float64
	for _, rate := range openLoopRates {
		st := openLoop(transport, base, pool, rate, step, lc.chk)
		late = append(late, st.lateUS...)
		if rate == 8000 {
			m["net.open_p99_us_8k"] = st.p99us
		}
		// A step holds when its p99 meets the limit and no request found
		// the in-flight window full (a backlog that keeps growing).
		if st.p99us <= kneeLimitUS && st.overflow == 0 {
			m["net.knee_rps"] = rate
		}
		lc.notes[fmt.Sprintf("open_loop_%gk", rate/1000)] = map[string]any{"p99_us": st.p99us, "overflow": st.overflow, "sent": st.sent}
	}
	sort.Float64s(late)
	m["net.generator_late_p99_us"] = percentile(late, 99)
	return nil
}

// openLoopStats is one step of the open-loop ladder.
type openLoopStats struct {
	p99us    float64
	lateUS   []float64 // how late the generator sent each request
	sent     int
	overflow int64 // requests due while maxInFlight were already in flight
}

// openLoop sends GETs on a fixed schedule regardless of completions —
// independent users, so a stall makes the queue grow — and times each
// request from when it was due, which counts the wait a stall imposes on
// later requests.
func openLoop(rt http.RoundTripper, base string, pool *pairPool, rate float64, dur time.Duration, chk *checker) openLoopStats {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]int64, n)
	st := openLoopStats{sent: n, lateUS: make([]float64, 0, n)}
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
		overflow atomic.Int64
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		// Sleep while the gap allows and spin only through the last
		// stretch: a generator that spins all the time would take one of
		// the machine's two cores away from the server it is loading.
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			if wait > 50*time.Microsecond {
				time.Sleep(wait)
			}
		}
		st.lateUS = append(st.lateUS, float64(time.Since(due).Nanoseconds())/1e3)
		if inFlight.Load() >= maxInFlight {
			overflow.Add(1)
			lat[i] = -1
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			urlBuf := make([]byte, 0, 96)
			getOnce(rt, base, pool, i%len(pool.pairs), &urlBuf, "", chk)
			lat[i] = int64(time.Since(due))
		}(i, due)
	}
	wg.Wait()
	var done []int64
	for _, v := range lat {
		if v >= 0 {
			done = append(done, v)
		}
	}
	st.overflow = overflow.Load()
	st.p99us = percentile(sortedFloats(done, 1e3), 99)
	return st
}
