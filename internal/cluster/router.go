package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpmw"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Router defaults; see RouterConfig.
const (
	DefaultChunkSize       = 256
	DefaultUpstreamTimeout = 10 * time.Second
)

// errNoReplicas is answered as 503 when every replica is unhealthy or
// already tried.
var errNoReplicas = errors.New("cluster: no healthy replica available")

// RouterConfig tunes a Router.
type RouterConfig struct {
	// HedgeDelay launches a duplicate request on a second replica when
	// the first has not answered within this budget, taking whichever
	// finishes first — the classic tail-latency amputation. 0 disables
	// hedging. Requests carrying X-Hopdb-No-Hedge skip it regardless.
	HedgeDelay time.Duration
	// MaxBatch is the largest accepted /v1/batch request, in pairs
	// (default wire.DefaultMaxBatch).
	MaxBatch int
	// ChunkSize splits a /v1/batch request into per-replica chunks of
	// this many pairs (default DefaultChunkSize), fanned out
	// concurrently over the binary codec and reassembled in order.
	ChunkSize int
	// MaxAttempts bounds tries per request or chunk across replicas
	// (hedges count); 0 tries every replica once.
	MaxAttempts int
	// Primary is the base URL admin requests (/v1/admin/*) are proxied
	// to — the write path and the replication log. Empty answers 501.
	Primary string
	// UpstreamTimeout bounds each upstream attempt (default
	// DefaultUpstreamTimeout).
	UpstreamTimeout time.Duration
	// AccessLogSize is the ring-buffer capacity of the router's access
	// log (entries); 0 selects 1024.
	AccessLogSize int
	// Logf is the router's log sink (panics); nil selects log.Printf.
	Logf func(format string, args ...any)
	// ShardMap enables scatter-gather routing for the default dataset:
	// the pool's replicas are leaf shards owning contiguous rank ranges,
	// resolved per pair through this map. Requires Hub.
	ShardMap *shard.Map
	// Hub is the router-resident replicated hub shard (the top-rank
	// tier): hub-covered pairs are answered locally without touching a
	// leaf, and mixed pairs take their hub-side row from it.
	Hub *shard.Shard
}

// Router is the stateless serving tier in front of a replica pool: it
// balances /v1/distance and /v1/batch across healthy replicas
// (power-of-two-choices), retries transient failures on other replicas,
// hedges stragglers, splits large batches, and proxies the admin surface
// to the primary. Create with NewRouter; serve Handler().
type Router struct {
	pool  *Pool
	cfg   RouterConfig
	httpc *http.Client
	proxy http.Handler

	handler   http.Handler
	accessLog *httpmw.RingLog
	now       func() time.Time
	start     time.Time

	requests     atomic.Int64 // client requests routed
	queries      atomic.Int64 // pairs answered
	retries      atomic.Int64 // failover re-sends after a transient failure
	hedges       atomic.Int64 // duplicate requests launched by the hedger
	hedgeWins    atomic.Int64 // requests won by the hedged duplicate
	upstreamErrs atomic.Int64 // transient upstream failures observed
	hubLocal     atomic.Int64 // pairs answered from the router-resident hub, no leaf RPC
	rowFetches   atomic.Int64 // label rows fetched from leaf shards for local merging
	lat          metrics.Latency
}

// sharded reports whether scatter-gather shard routing is configured.
func (rt *Router) sharded() bool { return rt.cfg.ShardMap != nil }

// NewRouter wires a router over pool. The pool should be Started (or
// Probed) before traffic arrives.
func NewRouter(pool *Pool, cfg RouterConfig) (*Router, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = wire.DefaultMaxBatch
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.UpstreamTimeout <= 0 {
		cfg.UpstreamTimeout = DefaultUpstreamTimeout
	}
	if (cfg.ShardMap == nil) != (cfg.Hub == nil) {
		return nil, errors.New("cluster: sharded routing needs both ShardMap and Hub")
	}
	if cfg.ShardMap != nil {
		if err := cfg.ShardMap.Validate(); err != nil {
			return nil, err
		}
		hub, m := cfg.Hub, cfg.ShardMap
		if !hub.Hub || hub.Lo != 0 || hub.Hi != m.HubRanks || hub.NumVertices != m.N ||
			hub.Directed != m.Directed || hub.Weighted != m.Weighted {
			return nil, fmt.Errorf("cluster: hub shard [%d,%d) of n=%d (directed=%v weighted=%v) does not match shard map hub tier [0,%d) of n=%d (directed=%v weighted=%v)",
				hub.Lo, hub.Hi, hub.NumVertices, hub.Directed, hub.Weighted, m.HubRanks, m.N, m.Directed, m.Weighted)
		}
	}
	rt := &Router{
		pool:  pool,
		cfg:   cfg,
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		now:   time.Now,
	}
	rt.start = rt.now()
	if cfg.Primary != "" {
		u, err := url.Parse(cfg.Primary)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: invalid primary URL %q", cfg.Primary)
		}
		proxy := httputil.NewSingleHostReverseProxy(u)
		direct := proxy.Director
		proxy.Director = func(out *http.Request) {
			direct(out)
			// The outgoing request is a clone carrying the client's
			// headers; the id this tier kept or minted lives in the
			// context, so the primary logs the same one.
			if id := httpmw.RequestIDFromContext(out.Context()); id != "" {
				out.Header[wire.HeaderRequestID] = []string{id}
			}
		}
		rt.proxy = proxy
	}
	rt.accessLog = httpmw.NewRingLog(cfg.AccessLogSize)
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	mux := http.NewServeMux()
	// Query routes are dataset-scoped like a replica's; the flat /v1
	// spellings alias the "default" dataset through the same handlers.
	for _, p := range []string{"/v1/{dataset}", "/v1"} {
		mux.HandleFunc(p+"/distance", rt.handleDistance)
		mux.HandleFunc(p+"/batch", rt.handleBatch)
		mux.HandleFunc(p+"/path", rt.handlePath)
	}
	mux.HandleFunc("/v1/{dataset}/stats", rt.handleDatasetStats)
	mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/v1/metrics", rt.handleMetrics)
	mux.HandleFunc("/v1/admin/accesslog", rt.handleAccessLog)
	// The primary's admin surface, spelled out route by route — a
	// /v1/admin/ catch-all would conflict with the {dataset} wildcards.
	for _, p := range []string{"/v1/{dataset}", "/v1"} {
		mux.HandleFunc(p+"/admin/edges", rt.handleAdmin)
		mux.HandleFunc(p+"/admin/replication/log", rt.handleAdmin)
	}
	mux.HandleFunc("/v1/admin/datasets", rt.handleAdmin)
	mux.HandleFunc("/v1/admin/datasets/{name}", rt.handleAdmin)
	rt.handler = httpmw.Wrap(mux, httpmw.Options{Log: rt.accessLog, Logf: logf})
	return rt, nil
}

// AccessLog returns the router's access-log ring (also served at
// GET /v1/admin/accesslog).
func (rt *Router) AccessLog() *httpmw.RingLog { return rt.accessLog }

// dsName resolves the {dataset} path value ("" on the flat aliases
// means "default") and annotates the access-log entry with it.
func dsName(r *http.Request) string {
	name := r.PathValue("dataset")
	if name == "" {
		name = wire.DefaultDataset
	}
	httpmw.SetDataset(r, name)
	return name
}

// upstreamPath builds the replica-side path for a dataset: the default
// dataset uses the flat spelling (byte-identical on the replica, and
// compatible with pre-multi-tenant replicas), named datasets the scoped
// one.
func upstreamPath(dataset, suffix string) string {
	if dataset == wire.DefaultDataset {
		return "/v1" + suffix
	}
	return "/v1/" + dataset + suffix
}

// forwardHeaders collects the headers the router relays to replicas:
// the client's bearer token (replicas run their own auth) and
// read-your-writes demand, and the request id this tier kept or minted
// (so one id appears in every tier's access log).
func forwardHeaders(r *http.Request) http.Header {
	fwd := http.Header{}
	for _, k := range []string{"Authorization", wire.HeaderMinSeq} {
		if v := r.Header.Get(k); v != "" {
			fwd.Set(k, v)
		}
	}
	if id := httpmw.RequestIDFromContext(r.Context()); id != "" {
		fwd[wire.HeaderRequestID] = []string{id}
	}
	return fwd
}

// Handler returns the root http.Handler serving all router endpoints.
func (rt *Router) Handler() http.Handler { return rt.handler }

// upstream is one attempt's outcome. A transport failure leaves err set;
// otherwise status/body/seq/epoch/retryAfter mirror the replica's
// response.
type upstream struct {
	status                 int
	body                   []byte
	seq, epoch, retryAfter string
	err                    error
	hedged                 bool
}

// transient reports whether the outcome is worth another replica:
// transport errors, plus the shared retryability rule (gateway-ish
// statuses, including the 503 a min-seq-behind replica answers).
func (u upstream) transient() bool {
	return u.err != nil || wire.TransientStatus(u.status)
}

// bodyScratch holds the buffers fetchOnce reads upstream bodies into,
// so a body costs one exactly sized copy instead of io.ReadAll's
// growth: a leaf's /v1/rows answer is chunked, its length unknown until
// it ends. Buffers above maxPooledBody are left to the collector.
var bodyScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// fetchOnce performs one upstream attempt against ep, forwarding the
// relayed client headers (auth, request id, read-your-writes demand),
// and reads the whole response into one buffer.
func (rt *Router) fetchOnce(ctx context.Context, ep *endpoint, method, path, contentType string, body []byte, fwd http.Header, hedged bool) upstream {
	ep.inflight.Add(1)
	defer ep.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.UpstreamTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ep.url+path, rd)
	if err != nil {
		return upstream{err: err, hedged: hedged}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, vs := range fwd {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return upstream{err: err, hedged: hedged}
	}
	defer resp.Body.Close()
	buf := bodyScratch.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	b := bytes.Clone(buf.Bytes())
	if buf.Cap() <= maxPooledBody {
		bodyScratch.Put(buf)
	}
	if err != nil {
		return upstream{err: err, hedged: hedged}
	}
	return upstream{
		status:     resp.StatusCode,
		body:       b,
		seq:        resp.Header.Get(wire.HeaderSeq),
		epoch:      resp.Header.Get(wire.HeaderEpoch),
		hedged:     hedged,
		retryAfter: resp.Header.Get("Retry-After"),
	}
}

// maxAttempts resolves the per-request attempt budget.
func (rt *Router) maxAttempts() int {
	if rt.cfg.MaxAttempts > 0 {
		return rt.cfg.MaxAttempts
	}
	if n := rt.pool.Size(); n > 0 {
		return n
	}
	return 1
}

// forward routes one logical request: pick a replica advertising the
// dataset (power of two choices), hedge a straggler onto a second one,
// and fail transient outcomes over to untried replicas until the
// attempt budget runs out. The returned outcome is the first
// non-transient answer, or the last transient one when every attempt
// failed (so a 503 from uniformly behind replicas propagates as a 503,
// keeping min-seq semantics).
func (rt *Router) forward(ctx context.Context, dataset, method, path, contentType string, body []byte, fwd http.Header, noHedge bool) upstream {
	pick := func(exclude func(string) bool) *endpoint { return rt.pool.PickDataset(dataset, exclude) }
	return rt.forwardPick(ctx, pick, fmt.Sprintf("dataset %q", dataset), method, path, contentType, body, fwd, noHedge)
}

// forwardShard routes one request to a replica holding exactly the
// shard si, with the same hedge/retry/failover loop as forward.
func (rt *Router) forwardShard(ctx context.Context, si wire.ShardInfo, method, path, contentType string, body []byte, fwd http.Header, noHedge bool) upstream {
	pick := func(exclude func(string) bool) *endpoint { return rt.pool.PickShardOwner(si, exclude) }
	return rt.forwardPick(ctx, pick, fmt.Sprintf("shard [%d,%d)", si.Lo, si.Hi), method, path, contentType, body, fwd, noHedge)
}

// forwardPick is the routing loop behind forward and forwardShard:
// launch on a picked replica, hedge a straggler, fail transient
// outcomes over to untried replicas until the attempt budget runs out.
func (rt *Router) forwardPick(ctx context.Context, pick func(exclude func(string) bool) *endpoint, what, method, path, contentType string, body []byte, fwd http.Header, noHedge bool) upstream {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	budget := rt.maxAttempts()
	results := make(chan upstream, budget)
	tried := make(map[string]bool)
	launch := func(hedged bool) bool {
		ep := pick(func(u string) bool { return tried[u] })
		if ep == nil {
			return false
		}
		tried[ep.url] = true
		go func() { results <- rt.fetchOnce(ctx, ep, method, path, contentType, body, fwd, hedged) }()
		return true
	}
	if !launch(false) {
		return upstream{err: fmt.Errorf("%w (%s)", errNoReplicas, what)}
	}
	launched, inflight := 1, 1
	var hedgeTimer <-chan time.Time
	if rt.cfg.HedgeDelay > 0 && !noHedge {
		hedgeTimer = time.After(rt.cfg.HedgeDelay)
	}
	var last upstream
	for {
		select {
		case res := <-results:
			inflight--
			if !res.transient() {
				if res.hedged {
					rt.hedgeWins.Add(1)
				}
				return res
			}
			rt.upstreamErrs.Add(1)
			last = res
			if launched < budget && launch(false) {
				launched++
				inflight++
				rt.retries.Add(1)
				continue
			}
			if inflight == 0 {
				return last
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if launched < budget && launch(true) {
				launched++
				inflight++
				rt.hedges.Add(1)
			}
		case <-ctx.Done():
			return upstream{err: ctx.Err()}
		}
	}
}

// writeUpstream relays an upstream outcome to the client, translating
// transport-level failures into 502/503.
func (rt *Router) writeUpstream(w http.ResponseWriter, res upstream) {
	if res.err != nil {
		status := http.StatusBadGateway
		msg := "upstream request failed: " + res.err.Error()
		if errors.Is(res.err, errNoReplicas) {
			status = http.StatusServiceUnavailable
			msg = res.err.Error()
		}
		wire.WriteError(w, status, msg)
		return
	}
	if res.seq != "" {
		w.Header().Set(wire.HeaderSeq, res.seq)
	}
	if res.epoch != "" {
		w.Header().Set(wire.HeaderEpoch, res.epoch)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// handleDistance relays /v1/{ds}/distance to a replica, or answers the
// sharded default dataset from the shard fleet with the bytes a replica
// would give.
func (rt *Router) handleDistance(w http.ResponseWriter, r *http.Request) {
	if !rt.sharded() || dsName(r) != wire.DefaultDataset {
		rt.forwardSingle(w, r, "/distance")
		return
	}
	t0 := rt.now()
	defer func() { rt.lat.Observe(rt.now().Sub(t0)) }()
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	rt.requests.Add(1)
	// The leaves keep no journal, so any positive min-seq is unmet.
	if !wire.CheckMinSeq(w, r, -1) {
		return
	}
	sv, tv, ok := wire.ParsePair(w, r)
	if !ok {
		return
	}
	var d [1]uint32
	if fail := rt.shardedAnswer(r.Context(), d[:], []wire.QueryPair{{S: sv, T: tv}},
		forwardHeaders(r), r.Header.Get(wire.HeaderNoHedge) != ""); fail != nil {
		rt.writeUpstream(w, *fail)
		return
	}
	rt.queries.Add(1)
	wire.WriteDistance(w, sv, tv, d[0])
}

// handlePath relays /v1/{ds}/path like a distance query: one replica
// answers the whole request (path reconstruction is not splittable).
func (rt *Router) handlePath(w http.ResponseWriter, r *http.Request) {
	rt.forwardSingle(w, r, "/path")
}

// forwardSingle relays one unsplittable GET (distance, path) to a
// replica serving the request's dataset.
func (rt *Router) forwardSingle(w http.ResponseWriter, r *http.Request, suffix string) {
	t0 := rt.now()
	defer func() { rt.lat.Observe(rt.now().Sub(t0)) }()
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	rt.requests.Add(1)
	ds := dsName(r)
	path := upstreamPath(ds, suffix)
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	res := rt.forward(r.Context(), ds, http.MethodGet, path, "", nil,
		forwardHeaders(r), r.Header.Get(wire.HeaderNoHedge) != "")
	if res.err == nil && res.status == http.StatusOK {
		rt.queries.Add(1)
	}
	rt.writeUpstream(w, res)
}

// handleDatasetStats relays /v1/{ds}/stats to a replica serving the
// dataset (the router's own aggregate stats stay at /v1/stats).
func (rt *Router) handleDatasetStats(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	ds := dsName(r)
	res := rt.forward(r.Context(), ds, http.MethodGet, upstreamPath(ds, "/stats"), "", nil,
		forwardHeaders(r), true)
	rt.writeUpstream(w, res)
}

// handleAccessLog serves GET /v1/admin/accesslog: the router's own ring
// of recent requests, oldest first.
func (rt *Router) handleAccessLog(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	rt.accessLog.ServeDump(w)
}

// batchScratch recycles the router's per-request batch buffers.
var batchScratch = sync.Pool{New: func() any { return new(wire.Batch) }}

// handleBatch reads the client's batch (JSON or binary) through the
// shared codec, answers it from the shard fleet (sharded default
// dataset) or the replica pool, and responds in the encoding the client
// used.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := rt.now()
	defer func() { rt.lat.Observe(rt.now().Sub(t0)) }()
	if !wire.AllowMethod(w, r, http.MethodPost) {
		return
	}
	rt.requests.Add(1)
	ds := dsName(r)
	sharded := rt.sharded() && ds == wire.DefaultDataset
	// Shard leaves keep no journal, so a positive min-seq is unmet. The
	// replicas judge it themselves; the router only refuses a malformed
	// one, before the body, as they would.
	seq := int64(math.MaxInt64)
	if sharded {
		seq = -1
	}
	if !wire.CheckMinSeq(w, r, seq) {
		return
	}
	b := batchScratch.Get().(*wire.Batch)
	defer batchScratch.Put(b)
	if !b.Read(w, r, rt.cfg.MaxBatch) {
		return
	}
	fwd, noHedge := forwardHeaders(r), r.Header.Get(wire.HeaderNoHedge) != ""
	var (
		pos  replicaPos
		fail *upstream
	)
	if sharded {
		fail = rt.shardedAnswer(r.Context(), b.Dists, b.Pairs, fwd, noHedge)
	} else {
		pos, fail = rt.replicatedAnswer(r.Context(), ds, b.Dists, b.Pairs, fwd, noHedge)
	}
	if fail != nil {
		rt.writeUpstream(w, *fail)
		return
	}
	rt.queries.Add(int64(len(b.Pairs)))
	if seq, epoch, ok := pos.position(); ok {
		w.Header().Set(wire.HeaderSeq, strconv.FormatInt(seq, 10))
		w.Header().Set(wire.HeaderEpoch, strconv.FormatInt(epoch, 10))
	}
	b.Write(w)
}

// replicatedAnswer answers pairs into dists from the replica pool: it
// splits them into ChunkSize chunks and fans those out concurrently over
// the binary codec, each independently balanced, retried, and hedged.
// The returned position is the minimum seq/epoch across the answering
// replicas: the weakest freshness any part of the batch was served at.
func (rt *Router) replicatedAnswer(ctx context.Context, ds string, dists []uint32, pairs []wire.QueryPair, fwd http.Header, noHedge bool) (replicaPos, *upstream) {
	var (
		mu  sync.Mutex
		pos replicaPos
	)
	// An empty batch still sends one (empty) chunk, so a replica judges
	// the request's min-seq demand as it would for any other batch.
	size := rt.cfg.ChunkSize
	fail := scatter(max(1, (len(pairs)+size-1)/size), func(i int) *upstream {
		lo := i * size
		hi := min(lo+size, len(pairs))
		req := wire.AppendBatchRequest(nil, pairs[lo:hi])
		res := rt.forward(ctx, ds, http.MethodPost, upstreamPath(ds, "/batch"), wire.ContentTypeBinaryBatch, req, fwd, noHedge)
		if res.err != nil || res.status != http.StatusOK {
			return &res
		}
		got, err := wire.DecodeBatchResponse(dists[lo:hi:hi], res.body)
		if err != nil || len(got) != hi-lo {
			return &upstream{err: fmt.Errorf("replica answered a malformed batch: %v", err)}
		}
		mu.Lock()
		pos.fold(res.seq, res.epoch)
		mu.Unlock()
		return nil
	})
	return pos, fail
}

// scatter runs job(0) .. job(n-1) concurrently and returns the first
// failure any of them reported, nil when all succeeded: the fan-out of
// both the replicated chunks and the sharded per-leaf row fetches.
func scatter(n int, job func(i int) *upstream) *upstream {
	var (
		wg   sync.WaitGroup
		once sync.Once
		fail *upstream
	)
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			if res := job(i); res != nil {
				once.Do(func() { fail = res })
			}
		}()
	}
	wg.Wait()
	return fail
}

// replicaPos folds per-chunk replication headers into the minimum
// position across the batch — the weakest freshness any chunk was served
// at. A chunk answered by a replica that does not tag responses
// (read-only backend) poisons the position: the batch then carries no
// headers rather than a claim no replica made.
type replicaPos struct {
	seq, epoch int64
	any, bad   bool
}

func (p *replicaPos) fold(seq, epoch string) {
	s, err1 := strconv.ParseInt(seq, 10, 64)
	e, err2 := strconv.ParseInt(epoch, 10, 64)
	if err1 != nil || err2 != nil {
		p.bad = true
		return
	}
	if !p.any || s < p.seq {
		p.seq = s
	}
	if !p.any || e < p.epoch {
		p.epoch = e
	}
	p.any = true
}

func (p *replicaPos) position() (seq, epoch int64, ok bool) {
	return p.seq, p.epoch, p.any && !p.bad
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	healthy := rt.pool.Healthy()
	if healthy == 0 {
		wire.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "no healthy replicas", "healthy": 0, "replicas": rt.pool.Size()})
		return
	}
	wire.WriteJSON(w, http.StatusOK,
		map[string]any{"status": "ok", "healthy": healthy, "replicas": rt.pool.Size()})
}

// RouterStats is the JSON answer for the router's /v1/stats. Vertices
// mirrors a replica's so clients can discover the id space through the
// router transparently.
type RouterStats struct {
	Backend  string `json:"backend"`
	Vertices int32  `json:"vertices"`
	// Directed, Entries, and SizeBytes describe the fleet's index —
	// label bytes summed across distinct shards (replicas once), not
	// the first backend's view — matching a replica's stats keys so
	// clients handshake through the router transparently.
	Directed       bool    `json:"directed"`
	Entries        int64   `json:"entries"`
	SizeBytes      int64   `json:"size_bytes"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Requests       int64   `json:"requests"`
	Queries        int64   `json:"queries"`
	QPS            float64 `json:"qps"`
	Retries        int64   `json:"retries"`
	Hedges         int64   `json:"hedges"`
	HedgeWins      int64   `json:"hedge_wins"`
	UpstreamErrors int64   `json:"upstream_errors"`
	// HubLocal counts pairs answered entirely from the router-resident
	// hub shard (no leaf RPC); RowFetches counts the distinct leaf-owned
	// label rows fetched for router-local merging, which every other
	// pair goes through (each row once per batch). Both stay zero
	// unsharded.
	HubLocal   int64          `json:"hub_local"`
	RowFetches int64          `json:"row_fetches"`
	Replicas   []ReplicaState `json:"replicas"`
	// Shards reports per-shard resident label bytes, each distinct
	// slice once however many replicas hold it (sharded fleets only;
	// the hub row is the router's own copy).
	Shards []ShardTotal `json:"shards,omitempty"`
	// Datasets is the union of the datasets advertised by healthy
	// replicas — the same field a replica's /v1/stats carries, so pools
	// of routers chain.
	Datasets []string `json:"datasets,omitempty"`
}

// Stats snapshots the router counters and replica states.
func (rt *Router) Stats() RouterStats {
	uptime := rt.now().Sub(rt.start).Seconds()
	entries, sizeBytes, directed := rt.pool.IndexTotals()
	st := RouterStats{
		Backend:        string(wire.BackendRouter),
		Vertices:       rt.pool.Vertices(),
		Directed:       directed,
		Entries:        entries,
		SizeBytes:      sizeBytes,
		UptimeSeconds:  uptime,
		Requests:       rt.requests.Load(),
		Queries:        rt.queries.Load(),
		Retries:        rt.retries.Load(),
		Hedges:         rt.hedges.Load(),
		HedgeWins:      rt.hedgeWins.Load(),
		UpstreamErrors: rt.upstreamErrs.Load(),
		HubLocal:       rt.hubLocal.Load(),
		RowFetches:     rt.rowFetches.Load(),
		Replicas:       rt.pool.States(),
		Datasets:       rt.pool.Datasets(),
	}
	if rt.sharded() {
		st.Vertices = rt.cfg.ShardMap.N
		st.Directed = rt.cfg.ShardMap.Directed
		st.Shards = rt.pool.ShardTotals()
		hubHeld := false
		for _, g := range st.Shards {
			if g.Hub {
				hubHeld = true
			}
		}
		// The hub tier is router-resident; count it unless some replica
		// already serves (and advertised) it.
		if !hubHeld {
			hub := rt.cfg.Hub
			st.Entries += hub.Entries()
			st.SizeBytes += hub.SizeBytes()
			st.Shards = append([]ShardTotal{{
				Lo: hub.Lo, Hi: hub.Hi, Hub: true,
				Entries: hub.Entries(), SizeBytes: hub.SizeBytes(),
				Replicas: 1,
			}}, st.Shards...)
		}
	}
	if uptime > 0 {
		st.QPS = float64(st.Queries) / uptime
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	wire.WriteJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	st := rt.Stats()
	w.Header().Set("Content-Type", metrics.ContentType)
	m := metrics.NewWriter(w)
	m.Metric("hopdb_router_up", "Whether the router is serving.", "gauge", 1)
	m.Metric("hopdb_router_uptime_seconds", "Seconds since the router started.", "gauge", st.UptimeSeconds)
	m.Metric("hopdb_router_requests_total", "Client requests routed.", "counter", float64(st.Requests))
	m.Metric("hopdb_router_queries_total", "Pair lookups answered.", "counter", float64(st.Queries))
	m.Metric("hopdb_router_qps", "Lifetime average pair lookups per second.", "gauge", st.QPS)
	m.Metric("hopdb_router_retries_total", "Failover re-sends after transient upstream failures.", "counter", float64(st.Retries))
	m.Metric("hopdb_router_hedges_total", "Hedged duplicate requests launched.", "counter", float64(st.Hedges))
	m.Metric("hopdb_router_hedge_wins_total", "Requests won by the hedged duplicate.", "counter", float64(st.HedgeWins))
	m.Metric("hopdb_router_upstream_errors_total", "Transient upstream failures observed.", "counter", float64(st.UpstreamErrors))
	m.Metric("hopdb_router_hub_local_total", "Pairs answered from the router-resident hub shard (no leaf RPC).", "counter", float64(st.HubLocal))
	m.Metric("hopdb_router_row_fetches_total", "Label rows fetched from leaf shards for local merging.", "counter", float64(st.RowFetches))
	m.Metric("hopdb_router_label_entries", "Label entries across distinct index slices (replicas once).", "gauge", float64(st.Entries))
	m.Metric("hopdb_router_label_bytes", "Label bytes across distinct index slices (replicas once).", "gauge", float64(st.SizeBytes))
	for _, g := range st.Shards {
		name := fmt.Sprintf("%d-%d", g.Lo, g.Hi)
		if g.Hub {
			name = "hub"
		}
		m.Metric("hopdb_router_shard_bytes", "Resident label bytes per distinct shard.", "gauge",
			float64(g.SizeBytes), "shard="+name)
		m.Metric("hopdb_router_shard_replicas", "Healthy replicas per distinct shard.", "gauge",
			float64(g.Replicas), "shard="+name)
	}
	m.Metric("hopdb_router_replicas", "Configured replicas.", "gauge", float64(len(st.Replicas)))
	m.Metric("hopdb_router_replicas_healthy", "Replicas currently healthy.", "gauge", float64(rt.pool.Healthy()))
	m.Metric("hopdb_router_datasets", "Datasets routable right now (union over healthy replicas).", "gauge", float64(len(st.Datasets)))
	if qs := rt.lat.Quantiles(0.5, 0.95, 0.99); qs != nil {
		for i, q := range []string{"0.5", "0.95", "0.99"} {
			m.Metric("hopdb_router_request_duration_seconds",
				"Routed request latency over a sliding window of recent requests.", "summary",
				qs[i].Seconds(), "quantile="+q)
		}
	}
	m.Metric("hopdb_router_request_duration_seconds_count",
		"Routed requests observed by the latency window.", "counter", float64(rt.lat.Count()))
	for _, rs := range st.Replicas {
		up := 0.0
		if rs.Healthy {
			up = 1
		}
		m.Metric("hopdb_router_replica_up", "Per-replica health.", "gauge", up, "replica="+rs.URL)
		m.Metric("hopdb_router_replica_seq", "Per-replica replication sequence at last probe.", "gauge",
			float64(rs.Seq), "replica="+rs.URL)
	}
	_ = m.Err()
}

// handleAdmin proxies the admin surface — edge writes and the
// replication log — to the primary, so clients need only the router's
// address. Without a configured primary the router cannot route writes.
func (rt *Router) handleAdmin(w http.ResponseWriter, r *http.Request) {
	if rt.proxy == nil {
		wire.WriteError(w, http.StatusNotImplemented,
			"no primary configured; start hopdb-router with -primary to route admin requests")
		return
	}
	rt.proxy.ServeHTTP(w, r)
}
