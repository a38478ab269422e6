package main

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	hopdb "repro"
	"repro/internal/wire"
)

// benchHost is the authority in-process requests carry; nothing listens
// on it.
const benchHost = "http://hopdb.bench"

// requestIDPrefix starts the X-Hopdb-Request-Id of traced requests; the
// rest is the tracer's request number, so leaf-side wrappers can join a
// router request's spans across the socket.
const requestIDPrefix = "bench-"

// getSampleEvery is the traced GET phase's sampling: one request in this
// many records spans. A GET takes ~5 µs in-process, so tracing every one
// would produce 600k spans a second.
const getSampleEvery = 16

// segStat is what one timed segment of a closed loop measured, over all
// callers' samples.
type segStat struct {
	PerSecond float64 // completed operations per second
	P50us     float64
	P90us     float64
	P99us     float64
	N         int // latency samples
}

// newSegStat reduces the callers' latency samples of one segment.
func newSegStat(callers [][]int64, dur time.Duration) segStat {
	var all []int64
	for _, c := range callers {
		all = append(all, c...)
	}
	us := sortedFloats(all, 1e3)
	return segStat{
		PerSecond: float64(len(all)) / dur.Seconds(),
		P50us:     percentile(us, 50),
		P90us:     percentile(us, 90),
		P99us:     percentile(us, 99),
		N:         len(all),
	}
}

// loadStats summarises the segments of one closed-loop phase: each field
// is the quiet quartile (see quiet) of the per-segment values.
type loadStats struct {
	PerSecond float64
	P50us     float64
	P90us     float64
	P99us     float64
	Samples   int64   // latency samples over the whole phase
	SegmentN  int64   // smallest per-segment sample count
	Tail      float64 // highest percentile every segment supports
}

// pick collects one field of every segment.
func pick(segs []segStat, field func(segStat) float64) []float64 {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = field(s)
	}
	return v
}

func summarize(segs []segStat) loadStats {
	st := loadStats{
		PerSecond: quiet(pick(segs, func(s segStat) float64 { return s.PerSecond }), true),
		P50us:     quiet(pick(segs, func(s segStat) float64 { return s.P50us }), false),
		P90us:     quiet(pick(segs, func(s segStat) float64 { return s.P90us }), false),
		P99us:     quiet(pick(segs, func(s segStat) float64 { return s.P99us }), false),
	}
	for i, s := range segs {
		st.Samples += int64(s.N)
		if i == 0 || int64(s.N) < st.SegmentN {
			st.SegmentN = int64(s.N)
		}
	}
	st.Tail = supportedTail(int(st.SegmentN))
	return st
}

// parseDistanceBody extracts the answer from a /v1/distance JSON body
// without a full decode: the "distance" number, or Infinity when
// "reachable" is false. It tolerates any field order and extra fields.
func parseDistanceBody(b []byte) (uint32, bool) {
	if bytes.Contains(b, []byte(`"reachable":false`)) {
		return hopdb.Infinity, true
	}
	i := bytes.Index(b, []byte(`"distance":`))
	if i < 0 {
		return 0, false
	}
	i += len(`"distance":`)
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	if j == i {
		return 0, false
	}
	v, err := strconv.ParseUint(string(b[i:j]), 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(v), true
}

// getOnce issues one GET /v1/distance for pool pair i through rt and
// checks the answer; it returns the request latency.
func getOnce(rt http.RoundTripper, base string, pool *pairPool, i int, urlBuf *[]byte, requestID string, chk *checker) time.Duration {
	p := pool.pairs[i]
	u := append((*urlBuf)[:0], base...)
	u = append(u, "/v1/distance?s="...)
	u = strconv.AppendInt(u, int64(p.S), 10)
	u = append(u, "&t="...)
	u = strconv.AppendInt(u, int64(p.T), 10)
	*urlBuf = u
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodGet, string(u), nil)
	if err != nil {
		chk.expect(false, "GET %s: %v", u, err)
		return time.Since(t0)
	}
	if requestID != "" {
		req.Header.Set(wire.HeaderRequestID, requestID)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		chk.expect(false, "GET %s: %v", u, err)
		return time.Since(t0)
	}
	body, err := responseBytes(resp)
	lat := time.Since(t0)
	switch d, ok := parseDistanceBody(body); {
	case err != nil:
		chk.expect(false, "GET %s: reading body: %v", u, err)
	case resp.StatusCode != http.StatusOK:
		chk.refused(resp.StatusCode)
		chk.expect(false, "GET %s: status %d: %s", u, resp.StatusCode, body)
	case !ok:
		chk.expect(false, "GET %s: unparseable body %q", u, body)
	default:
		chk.expect(d == pool.expect[i], "GET %s: served %d, heap index says %d", u, d, pool.expect[i])
	}
	return lat
}

// getLoop is a closed loop of GET /v1/distance: each caller sends its
// next request only when the previous one completed (callers wait for
// replies, so a slow server receives less load). Callers walk the pool
// from evenly spaced offsets and carry on where they stopped from one
// segment to the next. With a tracer, the single caller opens a client
// span per request.
type getLoop struct {
	rt      http.RoundTripper
	base    string
	pool    *pairPool
	callers int
	chk     *checker
	tr      *tracer
	pos     []int // next pool index of each caller
}

func newGetLoop(rt http.RoundTripper, base string, pool *pairPool, callers int, chk *checker, tr *tracer) *getLoop {
	l := &getLoop{rt: rt, base: base, pool: pool, callers: callers, chk: chk, tr: tr, pos: make([]int, callers)}
	for c := range l.pos {
		l.pos[c] = c * len(pool.pairs) / callers
	}
	return l
}

// segment drives the loop for dur and returns what it measured.
func (l *getLoop) segment(dur time.Duration) segStat {
	samples := make([][]int64, l.callers)
	var wg sync.WaitGroup
	end := time.Now().Add(dur)
	for c := 0; c < l.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := l.pos[c]
			urlBuf := make([]byte, 0, 96)
			for time.Now().Before(end) {
				var lat time.Duration
				if tr := l.tr; tr != nil {
					requestID := ""
					if n := tr.beginRequest(i%getSampleEvery == 0); n != 0 {
						requestID = requestIDPrefix + strconv.FormatInt(n, 10)
					}
					id := tr.start("client", "get")
					lat = getOnce(l.rt, l.base, l.pool, i, &urlBuf, requestID, l.chk)
					tr.end(id)
				} else {
					lat = getOnce(l.rt, l.base, l.pool, i, &urlBuf, "", l.chk)
				}
				samples[c] = append(samples[c], int64(lat))
				if i++; i == len(l.pool.pairs) {
					i = 0
				}
			}
			l.pos[c] = i
		}(c)
	}
	wg.Wait()
	if l.tr != nil {
		l.tr.unmute()
	}
	return newSegStat(samples, dur)
}

// batchBodies pre-encodes the pool as consecutive 256-pair binary batch
// requests, so the timed loop sends bytes it did not have to build.
func batchBodies(pool *pairPool) [][]byte {
	n := len(pool.pairs) / batchPairs
	bodies := make([][]byte, n)
	for k := range bodies {
		bodies[k] = wire.AppendBatchRequest(nil, pool.pairs[k*batchPairs:(k+1)*batchPairs])
	}
	return bodies
}

// batchOnce posts batch k of the pool and checks every answer; it
// returns the request latency.
func batchOnce(rt http.RoundTripper, base string, pool *pairPool, bodies [][]byte, k int, dists *[]uint32, requestID string, chk *checker) time.Duration {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/batch", bytes.NewReader(bodies[k]))
	if err != nil {
		chk.expect(false, "POST batch %d: %v", k, err)
		return time.Since(t0)
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinaryBatch)
	if requestID != "" {
		req.Header.Set(wire.HeaderRequestID, requestID)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		chk.expect(false, "POST batch %d: %v", k, err)
		return time.Since(t0)
	}
	body, err := responseBytes(resp)
	if err == nil && resp.StatusCode == http.StatusOK {
		*dists, err = wire.DecodeBatchResponse((*dists)[:0], body)
	}
	lat := time.Since(t0)
	switch {
	case err != nil:
		chk.expect(false, "POST batch %d: %v", k, err)
	case resp.StatusCode != http.StatusOK:
		chk.refused(resp.StatusCode)
		chk.expect(false, "POST batch %d: status %d: %s", k, resp.StatusCode, body)
	case len(*dists) != batchPairs:
		chk.expect(false, "POST batch %d: %d answers for %d pairs", k, len(*dists), batchPairs)
	default:
		want := pool.expect[k*batchPairs : (k+1)*batchPairs]
		bad := -1
		for j, d := range *dists {
			if d != want[j] {
				bad = j
				break
			}
		}
		if bad >= 0 {
			p := pool.pairs[k*batchPairs+bad]
			chk.expect(false, "POST batch %d: d(%d,%d) served %d, heap index says %d", k, p.S, p.T, (*dists)[bad], want[bad])
		} else {
			chk.ok(1)
		}
	}
	return lat
}

// batchLoop is a closed loop of 256-pair binary /v1/batch posts from one
// caller, walking the pre-encoded bodies in order; PerSecond counts
// batches.
type batchLoop struct {
	rt     http.RoundTripper
	base   string
	pool   *pairPool
	bodies [][]byte
	chk    *checker
	tr     *tracer
	k      int // next body
	dists  []uint32
}

func newBatchLoop(rt http.RoundTripper, base string, pool *pairPool, bodies [][]byte, chk *checker, tr *tracer) *batchLoop {
	return &batchLoop{rt: rt, base: base, pool: pool, bodies: bodies, chk: chk, tr: tr, dists: make([]uint32, 0, batchPairs)}
}

// segment drives the loop for dur and returns what it measured.
func (l *batchLoop) segment(dur time.Duration) segStat {
	var samples []int64
	for end := time.Now().Add(dur); time.Now().Before(end); {
		var lat time.Duration
		if tr := l.tr; tr != nil {
			n := tr.beginRequest(true)
			id := tr.start("client", "batch")
			lat = batchOnce(l.rt, l.base, l.pool, l.bodies, l.k, &l.dists, requestIDPrefix+strconv.FormatInt(n, 10), l.chk)
			tr.end(id)
		} else {
			lat = batchOnce(l.rt, l.base, l.pool, l.bodies, l.k, &l.dists, "", l.chk)
		}
		samples = append(samples, int64(lat))
		if l.k++; l.k == len(l.bodies) {
			l.k = 0
		}
	}
	return newSegStat([][]int64{samples}, dur)
}

// warmServe sends a fixed number of GETs and batches so caches fill and
// lazy set-up finishes before the timed phases; it is count-based so a
// slower first request shows up in setup_s.
func warmServe(rt http.RoundTripper, base string, pool *pairPool, bodies [][]byte, gets, batches int, chk *checker) {
	urlBuf := make([]byte, 0, 96)
	for i := 0; i < gets; i++ {
		getOnce(rt, base, pool, i%len(pool.pairs), &urlBuf, "", chk)
	}
	dists := make([]uint32, 0, batchPairs)
	for k := 0; k < batches; k++ {
		batchOnce(rt, base, pool, bodies, k%len(bodies), &dists, "", chk)
	}
}

// requestNumber recovers the tracer request number from a request id
// minted by the traced caller, or 0.
func requestNumber(id string) int64 {
	digits, ok := strings.CutPrefix(id, requestIDPrefix)
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
