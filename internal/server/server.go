// Package server implements the hopdb query service: a multi-tenant
// HTTP front end that answers point-to-point distance queries from any
// number of named datasets, each backed by any hopdb.Querier — a heap
// or memory-mapped index, the same file served from disk, or even
// another server through the remote client — behind one versioned API
// (see cmd/hopdb-serve).
//
// The hot path adds only one per-request record (internal/httpmw) and,
// for a batch, scratch drawn from a sync.Pool, plus an optional
// per-dataset cache of answered GET /v1/distance pairs (batches skip
// it); every Querier backend is safe for concurrent queries by
// contract. Datasets live in a registry (internal/registry)
// supporting hot attach/detach: resolution is one atomic load, and a
// detached dataset's backend closes only after in-flight requests
// drain.
//
// Endpoints. Query routes are dataset-scoped under /v1/{dataset}/;
// the flat /v1/* spellings remain as aliases for the dataset named
// "default":
//
//	GET  /v1/{ds}/distance?s=1&t=2 -> {"s":1,"t":2,"distance":3,"reachable":true}
//	                             {"s":1,"t":9,"reachable":false}         (unreachable: distance omitted)
//	POST /v1/{ds}/batch  [[1,2],[3,4]] -> {"results":[{...},{...}]}      (same shape per pair)
//	POST /v1/{ds}/batch  (Content-Type: application/x-hopdb-batch)       (compact binary, answered in kind)
//	GET  /v1/{ds}/path?s=1&t=2 -> {"s":1,"t":2,"distance":3,"path":[1,7,4,2]} (needs a Pather backend)
//	GET  /v1/{ds}/stats -> backend kind, index size, uptime, query counters,
//	                  cache hit rate, update counters, attached datasets
//	GET  /v1/healthz -> {"status":"ok"}
//	GET  /v1/metrics -> Prometheus text exposition: global and
//	                  per-dataset QPS, latency quantiles, cache hit rate
//	POST /v1/{ds}/admin/edges [{"op":"insert","u":1,"v":2,"w":3},...]
//	                  -> {"applied":N,"seq":S,"stats":{...}}  (write scope;
//	                  needs an updatable backend)
//	GET  /v1/{ds}/admin/replication/log?since=N[&max=M]
//	                  -> {"seq":S,"epoch":E,"ops":[...]}  (write scope;
//	                  replicas pull this to converge on the primary)
//	POST /v1/admin/datasets/{name}  {"path":"x.idx",...} -> attach (admin scope)
//	DELETE /v1/admin/datasets/{name} -> detach, drain, close (admin scope)
//	GET  /v1/admin/datasets -> stats of every attached dataset
//	GET  /v1/admin/accesslog -> ring buffer of recent requests
//	GET  /debug/pprof/* -> profiling (Config.EnablePprof only)
//
// Every response carries X-Hopdb-Request-Id — the request's id if it
// sent a valid one (so one id follows a request through router and
// replica access logs), a fresh one otherwise. One wrapper
// (httpmw.Wrap) serves the mux: it gives each request a record holding
// its id, its access-log entry (kept in a fixed ring) and its response
// status, recovers panics (a handler panic answers 500 and logs the
// stack; the server lives on) and caps request bodies.
//
// Auth is principal-based (see Principal): bearer tokens map to scopes
// (read, write, admin) and per-dataset grants, with a token-bucket rate
// limiter per principal and batch admission control shedding overload
// with 429 + Retry-After. With no principals configured the query
// surface is open and Config.AdminToken alone gates the admin surface,
// exactly as before multi-tenancy.
//
// Replication-aware serving: when a dataset's backend journals its
// mutations (hopdb.Replicator), every query response carries X-Hopdb-Seq
// and X-Hopdb-Epoch, and a request may demand read-your-writes freshness
// with X-Hopdb-Min-Seq — a server still behind that sequence answers 503
// so a router or retrying client moves on to a caught-up replica.
//
// Errors are always {"error":"..."} with a matching HTTP status: 400 for
// malformed input, 401/403 for requests with a bad/absent token or an
// insufficient scope/grant, 404 for an unknown dataset or an unreachable
// /v1/path pair, 405 (with Allow) for a wrong method, 409 for attaching
// a duplicate dataset, 413 for an oversized batch, 429 for a shed
// request, 501 for /v1/path on a backend without path reconstruction
// (or admin updates on a read-only one), and 502 when a fallible backend
// (disk, remote) fails to answer — never a fabricated "unreachable", and
// never a cached one.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hopdb "repro"
	"repro/internal/httpmw"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// CacheEntries is the distance cache budget in entries (pairs), per
	// dataset; 0 disables the cache. The cache serves GET /v1/distance
	// only: a batch's hot hub pairs merge in less time than a probe.
	CacheEntries int
	// MaxBatch is the largest accepted /v1/batch request, in pairs
	// (default wire.DefaultMaxBatch). Larger batches get HTTP 413.
	MaxBatch int
	// Workers is the fan-out of a /v1/batch request across goroutines
	// (default GOMAXPROCS).
	Workers int
	// Timeout bounds query-route handling end-to-end; 0 disables it.
	Timeout time.Duration
	// AdminTimeout bounds admin-route handling; 0 disables it. Admin
	// routes have their own budget because a label rebuild legitimately
	// outlives any sane query timeout.
	AdminTimeout time.Duration
	// AdminToken is the legacy single bearer token: it grants every
	// scope on every dataset. Empty plus no Principals disables the
	// write/admin surface entirely (403 regardless of backend).
	AdminToken string
	// Principals enables principal-based auth (see LoadTokenFile). When
	// non-empty, every query route requires a token holding the read
	// scope and a grant for the dataset.
	Principals []Principal
	// RateQPS/RateBurst are the default per-principal token-bucket rate
	// limit (tokens per second / bucket depth; one token per answered
	// pair). 0 disables. With no principals configured a positive
	// RateQPS applies to all unauthenticated traffic as one bucket.
	RateQPS   float64
	RateBurst float64
	// MaxInflightPairs bounds the total batch pairs admitted across all
	// concurrent requests; the overflow is shed with 429 + Retry-After.
	// 0 disables admission control.
	MaxInflightPairs int
	// AccessLogSize is the ring-buffer capacity of the structured access
	// log (entries); 0 selects 1024.
	AccessLogSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (gated by
	// the admin scope when auth is configured).
	EnablePprof bool
	// Opener opens the backend described by a POST /v1/admin/datasets
	// spec; nil selects OpenSpec (hopdb.Open). Tests inject fakes here.
	Opener func(wire.DatasetSpec) (hopdb.Querier, error)
	// Logf is the server's log sink (panics, dataset lifecycle); nil
	// selects log.Printf.
	Logf func(format string, args ...any)
	// Replica marks this server as a pull replica: POST admin/edges
	// answers 403 (direct writes would fork the op sequence away from
	// the primary), while the replication log stays served so replicas
	// can be chained.
	Replica bool
}

// Server answers distance queries over HTTP from a registry of named
// datasets.
type Server struct {
	reg    *registry.Registry
	states sync.Map // *registry.Dataset -> *dsState
	cfg    Config
	now    func() time.Time // injectable clock, for deterministic stats tests
	start  time.Time

	// q is the default dataset's backend when constructed with New; it
	// exists for single-tenant callers (and tests) that know there is
	// exactly one.
	q hopdb.Querier

	queries atomic.Int64    // individual pair lookups answered, all datasets
	lat     metrics.Latency // sliding window of query-request latencies

	auth       *authStore   // nil: no auth configured
	anonBucket *tokenBucket // rate limit for unauthenticated traffic
	inflight   atomic.Int64 // batch pairs currently admitted

	accessLog *httpmw.RingLog
	logf      func(format string, args ...any)
	ctxPool   sync.Pool
	handler   http.Handler
}

// queryCtx is the pooled per-request scratch of /v1/batch and /v1/rows:
// the body, the decoded pairs and their distances. Pooling it keeps
// steady-state batch handling at O(1) allocations regardless of batch
// size. A batch goes straight to the backend, never through the
// distance cache.
type queryCtx = wire.Batch

// New wraps q in a Server as its sole (initial) dataset, named
// "default". The backend must already be fully initialized (graph
// attached, bit-parallel enabled) before serving starts; its lifetime
// stays with the caller (Close it after the server stops). More
// datasets can be attached later through the admin API.
func New(q hopdb.Querier, cfg Config) *Server {
	reg := registry.New()
	if _, err := reg.Attach(wire.DefaultDataset, q, false); err != nil {
		// Only a nil Querier can fail here; surface it at the call site.
		panic(err)
	}
	s := NewRegistry(reg, cfg)
	s.q = q
	return s
}

// NewRegistry serves an assembled registry (for multi-dataset startup:
// cmd/hopdb-serve attaches one dataset per -dataset flag, then calls
// this).
func NewRegistry(reg *registry.Registry, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = wire.DefaultMaxBatch
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		reg: reg,
		cfg: cfg,
		now: time.Now,
	}
	s.start = s.now()
	s.logf = cfg.Logf
	if s.logf == nil {
		s.logf = log.Printf
	}
	s.auth = newAuthStore(cfg)
	if s.auth == nil || len(s.auth.principals) == 0 {
		s.anonBucket = newTokenBucket(cfg.RateQPS, cfg.RateBurst)
	}
	s.accessLog = httpmw.NewRingLog(cfg.AccessLogSize)
	s.ctxPool.New = func() any { return &queryCtx{} }
	for _, d := range reg.Snapshot() {
		s.states.Store(d, newDsState(d, cfg))
		d.Release()
	}
	s.handler = s.buildHandler()
	return s
}

// buildHandler assembles the route table behind the request wrapper.
func (s *Server) buildHandler() http.Handler {
	cfg := s.cfg
	// Per-route timeouts: query routes get cfg.Timeout, admin routes get
	// cfg.AdminTimeout (label rebuilds outlive query budgets).
	qt := func(h http.Handler) http.Handler {
		if cfg.Timeout > 0 {
			return http.TimeoutHandler(h, cfg.Timeout, `{"error":"request timed out"}`)
		}
		return h
	}
	at := func(h http.Handler) http.Handler {
		if cfg.AdminTimeout > 0 {
			return http.TimeoutHandler(h, cfg.AdminTimeout, `{"error":"request timed out"}`)
		}
		return h
	}

	mux := http.NewServeMux()
	// The query surface, dataset-scoped — plus the flat /v1 spellings,
	// resolving the "default" dataset through the same handlers, so the
	// two stay byte-identical.
	distance := qt(s.dsRoute(ScopeRead, s.handleDistance, http.MethodGet))
	batch := qt(s.dsRoute(ScopeRead, s.handleBatch, http.MethodPost))
	path := qt(s.dsRoute(ScopeRead, s.handlePath, http.MethodGet))
	// Stats is the fleet handshake (routers discover datasets through
	// it), so the implicit spellings must answer even when no "default"
	// dataset is attached: they fall back to the global snapshot. An
	// explicit /v1/{dataset}/stats naming a missing dataset still 404s.
	stats := qt(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !wire.AllowMethod(w, r, http.MethodGet) {
			return
		}
		name := r.PathValue("dataset")
		explicit := name != ""
		if name == "" {
			name = wire.DefaultDataset
		}
		httpmw.SetDataset(r, name)
		d, st := s.resolve(name)
		if d == nil {
			if explicit {
				wire.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name))
				return
			}
			wire.WriteJSON(w, http.StatusOK, s.Stats())
			return
		}
		defer d.Release()
		s.handleStats(st, w, r)
	}))
	// Row fetches: the scatter-gather primitive of sharded serving.
	rows := qt(s.dsRoute(ScopeRead, s.handleRows, http.MethodPost))
	// The dataset admin surface: edges and the replication log are
	// dataset-scoped (flat /v1/admin/* aliases the default dataset).
	adminEdges := at(s.dsRoute(ScopeWrite, s.handleAdminEdges, http.MethodPost))
	replLog := at(s.dsRoute(ScopeWrite, s.handleReplicationLog, http.MethodGet))
	for _, p := range []string{"/v1/{dataset}", "/v1"} {
		mux.Handle(p+"/distance", distance)
		mux.Handle(p+"/batch", batch)
		mux.Handle(p+"/path", path)
		mux.Handle(p+"/stats", stats)
		mux.Handle(p+"/rows", rows)
		mux.Handle(p+"/admin/edges", adminEdges)
		mux.Handle(p+"/admin/replication/log", replLog)
	}
	// The registry admin surface and observability.
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.Handle("/v1/admin/datasets", at(http.HandlerFunc(s.handleDatasets)))
	mux.Handle("/v1/admin/datasets/{name}", at(http.HandlerFunc(s.handleDatasetByName)))
	mux.Handle("/v1/admin/accesslog", at(http.HandlerFunc(s.handleAccessLog)))
	mux.Handle("/v1/metrics", qt(http.HandlerFunc(s.handleMetrics)))
	if cfg.EnablePprof {
		pp := func(h http.HandlerFunc) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if s.auth != nil {
					if !s.authorize(w, r, ScopeAdmin, "") {
						return
					}
				}
				h(w, r)
			})
		}
		mux.Handle("/debug/pprof/", pp(pprof.Index))
		mux.Handle("/debug/pprof/cmdline", pp(pprof.Cmdline))
		mux.Handle("/debug/pprof/profile", pp(pprof.Profile))
		mux.Handle("/debug/pprof/symbol", pp(pprof.Symbol))
		mux.Handle("/debug/pprof/trace", pp(pprof.Trace))
	}

	// GET /v1/distance, the flat spelling clients use for the default
	// dataset, skips the mux: its routing (a shared read lock and a
	// tree walk) measured about a sixth of the server's time for such a
	// request. The mux keeps the route, so unclean spellings of the path
	// still redirect to it, and the handler is the one the mux would
	// pick (there is no {dataset} to resolve on the flat path).
	route := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/distance" {
			distance.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
	// The wrapper reads s.now at call time, so a test that swaps the
	// clock after New times requests on the swapped one.
	return httpmw.Wrap(route, httpmw.Options{Log: s.accessLog, Logf: s.logf, MaxBody: 64 << 20,
		Now: func() time.Time { return s.now() }})
}

// dsRoute adapts a dataset-scoped handler into an http.HandlerFunc:
// method check (405 + Allow), dataset resolution ({dataset} path value;
// absent on the flat /v1 spellings, meaning "default"), access-log
// annotation, and — when scope is non-empty — authorization.
func (s *Server) dsRoute(scope string, h func(*dsState, http.ResponseWriter, *http.Request), methods ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !wire.AllowMethod(w, r, methods...) {
			return
		}
		name := r.PathValue("dataset")
		if name == "" {
			name = wire.DefaultDataset
		}
		httpmw.SetDataset(r, name)
		d, st := s.resolve(name)
		if d == nil {
			wire.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name))
			return
		}
		defer d.Release()
		if scope != "" && !s.authorize(w, r, scope, name) {
			return
		}
		h(st, w, r)
	}
}

// Handler returns the root http.Handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.handler }

// AccessLog returns the server's access-log ring (also served at
// GET /v1/admin/accesslog).
func (s *Server) AccessLog() *httpmw.RingLog { return s.accessLog }

// PathResult is the JSON answer for a /v1/path request.
type PathResult = wire.PathResult

// StatsResult is the JSON answer for /v1/stats.
type StatsResult = wire.StatsResult

// CacheStats reports distance-cache effectiveness in /v1/stats.
type CacheStats = wire.CacheStats

// queryOne answers one pair from the backend, reporting a failure when
// the backend can (Lookuper).
func (s *Server) queryOne(st *dsState, sv, tv int32) (uint32, error) {
	if st.lookup != nil {
		d, _, err := st.lookup.Lookup(sv, tv)
		return d, err
	}
	d, _ := st.q.Distance(sv, tv)
	return d, nil
}

// queryBatch answers pairs into dists through the backend's batch path,
// sharded across the worker pool, reporting a failure when the backend
// can (LookupBatcher). Batches bypass the distance cache on every
// backend (see distCache).
func (s *Server) queryBatch(st *dsState, dists []uint32, pairs []hopdb.QueryPair) error {
	if st.blookup != nil {
		_, err := st.blookup.LookupBatchInto(dists, pairs, s.cfg.Workers)
		return err
	}
	st.q.DistanceBatchInto(dists, pairs, s.cfg.Workers)
	return nil
}

// distance answers one GET pair through the dataset's cache (when enabled).
// Failed queries are never cached: a transport or I/O error must not be
// served as a durable "unreachable" after the backend recovers. The
// cache generation is captured before the backend query so an answer
// computed against pre-update labels can never outlive an admin
// update's purge.
func (s *Server) distance(st *dsState, sv, tv int32) (uint32, error) {
	var gen uint32
	if st.cache != nil {
		if d, ok := st.cache.get(sv, tv); ok {
			return d, nil
		}
		gen = st.cache.generation()
	}
	d, err := s.queryOne(st, sv, tv)
	if err != nil {
		return d, err
	}
	if st.cache != nil {
		st.cache.put(sv, tv, d, gen)
	}
	return d, nil
}

// replicationGate runs the per-request replication protocol, all against
// one observed journal position (lock-free reads — tagging must never
// contend with a writer holding the maintenance lock through a rebuild):
// purge the distance cache if the sequence moved without passing through
// this server's admin handler (pull-loop mutations mutate the backend
// directly), stamp the response with the position, and enforce the
// X-Hopdb-Min-Seq read-your-writes demand — a server still behind it
// answers 503 (retryable: the router or client tries a caught-up
// replica). Returns false when the request was answered here.
//
// The position is read before the backend query, so a reported seq is
// never newer than the epoch that actually answers.
func (s *Server) replicationGate(st *dsState, w http.ResponseWriter, r *http.Request) bool {
	seq := int64(-1) // -1: backend does not journal, no demand satisfiable
	if st.rep != nil {
		seq = st.rep.Seq()
		if st.cache != nil && st.cacheSeq.Load() != seq && st.cacheSeq.Swap(seq) != seq {
			st.cache.purge()
		}
		w.Header().Set(wire.HeaderSeq, strconv.FormatInt(seq, 10))
		w.Header().Set(wire.HeaderEpoch, strconv.FormatInt(st.rep.Epoch(), 10))
	}
	return wire.CheckMinSeq(w, r, seq)
}

// observe records one query request's latency, timed from t0 (when the
// request wrapper took it), in the global and per-dataset windows.
func (s *Server) observe(st *dsState, t0 time.Time) {
	d := s.now().Sub(t0)
	s.lat.Observe(d)
	st.lat.Observe(d)
}

// count records n answered pair lookups.
func (s *Server) count(st *dsState, n int64) {
	s.queries.Add(n)
	st.queries.Add(n)
}

func (s *Server) handleDistance(st *dsState, w http.ResponseWriter, r *http.Request) {
	t0 := httpmw.Start(r)
	defer func() { s.observe(st, t0) }()
	if !s.replicationGate(st, w, r) {
		return
	}
	sv, tv, ok := wire.ParsePair(w, r)
	if !ok {
		return
	}
	if !s.charge(w, r, 1) {
		return
	}
	d, err := s.distance(st, sv, tv)
	if err != nil {
		wire.WriteError(w, http.StatusBadGateway, "backend query failed: "+err.Error())
		return
	}
	s.count(st, 1)
	wire.WriteDistance(w, sv, tv, d)
}

// handleBatch answers POST /v1/{ds}/batch, JSON or compact binary (see
// internal/wire), in the encoding the request used.
func (s *Server) handleBatch(st *dsState, w http.ResponseWriter, r *http.Request) {
	t0 := httpmw.Start(r)
	defer func() { s.observe(st, t0) }()
	if !s.replicationGate(st, w, r) {
		return
	}
	qc := s.ctxPool.Get().(*queryCtx)
	defer s.ctxPool.Put(qc)
	if !qc.Read(w, r, s.cfg.MaxBatch) {
		return
	}
	n := len(qc.Pairs)
	release, ok := s.admit(w, n)
	if !ok {
		return
	}
	defer release()
	if !s.charge(w, r, n) {
		return
	}
	if err := s.queryBatch(st, qc.Dists, qc.Pairs); err != nil {
		wire.WriteError(w, http.StatusBadGateway, "backend query failed: "+err.Error())
		return
	}
	s.count(st, int64(n))
	qc.Write(w)
}

// handleRows serves POST /v1/{ds}/rows: raw label rows by rank, the
// scatter-gather primitive a sharded router merges locally. Only shard
// backends implement the row provider contract; everything else
// answers 501. Asking for a rank outside the shard's owned range is a
// routing error (stale shard map), answered 502 so the router retries
// elsewhere.
func (s *Server) handleRows(st *dsState, w http.ResponseWriter, r *http.Request) {
	t0 := httpmw.Start(r)
	defer func() { s.observe(st, t0) }()
	if st.rows == nil {
		wire.WriteError(w, http.StatusNotImplemented,
			fmt.Sprintf("backend %q does not serve label rows (shard backends only)", st.backend.Backend))
		return
	}
	qc := s.ctxPool.Get().(*queryCtx)
	defer s.ctxPool.Put(qc)
	var ok bool
	if qc.Body, ok = wire.ReadBinaryBody(w, r, qc.Body, s.cfg.MaxBatch); !ok {
		return
	}
	keys, err := shard.DecodeRowsRequest(qc.Body)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	release, ok := s.admit(w, len(keys))
	if !ok {
		return
	}
	defer release()
	rows := make([][]label.Entry, len(keys))
	for i, k := range keys {
		var ok bool
		if k.In {
			rows[i], ok = st.rows.InRowRanked(k.Rank)
		} else {
			rows[i], ok = st.rows.OutRowRanked(k.Rank)
		}
		if !ok {
			wire.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("rank %d is outside this shard's owned range (stale shard map?)", k.Rank))
			return
		}
	}
	qc.Body = shard.AppendRowsResponse(qc.Body[:0], rows)
	w.Header().Set("Content-Type", shard.ContentTypeRows)
	w.WriteHeader(http.StatusOK)
	w.Write(qc.Body)
}

func (s *Server) handlePath(st *dsState, w http.ResponseWriter, r *http.Request) {
	t0 := httpmw.Start(r)
	defer func() { s.observe(st, t0) }()
	if !s.replicationGate(st, w, r) {
		return
	}
	sv, tv, ok := wire.ParsePair(w, r)
	if !ok {
		return
	}
	if !s.charge(w, r, 1) {
		return
	}
	if st.pather == nil {
		wire.WriteError(w, http.StatusNotImplemented,
			fmt.Sprintf("the %s backend answers distances only; path reconstruction needs an in-memory index with a graph attached", st.backend.Backend))
		return
	}
	path, err := st.pather.Path(sv, tv)
	s.count(st, 1)
	switch {
	case errors.Is(err, hopdb.ErrNoGraph):
		wire.WriteError(w, http.StatusNotImplemented, "path reconstruction needs a graph; start hopdb-serve with -graph")
		return
	case errors.Is(err, hopdb.ErrUnreachable):
		wire.WriteError(w, http.StatusNotFound, fmt.Sprintf("%d is unreachable from %d", tv, sv))
		return
	case err != nil:
		wire.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	d, _ := st.q.Distance(sv, tv)
	wire.WriteJSON(w, http.StatusOK, PathResult{S: sv, T: tv, Distance: d, Path: path})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleAdminEdges is the mutating admin API: POST /v1/{ds}/admin/edges
// with a JSON array of edge operations ([{"op":"insert","u":1,"v":2,
// "w":3},{"op":"delete","u":4,"v":5}]). Authorization (write scope on
// the dataset, or the legacy admin token) happens in dsRoute. A
// read-only backend answers 501. Ops apply in order; on failure the
// response reports how many applied, and the dataset's distance cache
// is purged whenever at least one op changed the graph.
func (s *Server) handleAdminEdges(st *dsState, w http.ResponseWriter, r *http.Request) {
	if s.cfg.Replica {
		wire.WriteError(w, http.StatusForbidden,
			"this server is a pull replica; apply edge updates at the primary")
		return
	}
	if st.updater == nil {
		wire.WriteError(w, http.StatusNotImplemented,
			fmt.Sprintf("the %s backend is read-only; edge updates need hopdb-serve -updates (heap index with a graph)", st.backend.Backend))
		return
	}
	// Ops are small fixed-shape objects; the JSON-batch body heuristic
	// (64 bytes per element) bounds them comfortably too.
	maxBody := int64(s.cfg.MaxBatch)*64 + 64
	body := http.MaxBytesReader(w, r.Body, maxBody)
	var ops []hopdb.EdgeOp
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ops); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			wire.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes (max-batch is %d ops)", maxBody, s.cfg.MaxBatch))
			return
		}
		wire.WriteError(w, http.StatusBadRequest, "body must be a JSON array of edge ops: "+err.Error())
		return
	}
	if tok, err := dec.Token(); err != io.EOF {
		wire.WriteError(w, http.StatusBadRequest, fmt.Sprintf("trailing data after the ops array (%v)", tok))
		return
	}
	if len(ops) > s.cfg.MaxBatch {
		wire.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("update of %d ops exceeds the limit of %d", len(ops), s.cfg.MaxBatch))
		return
	}

	st.adminMu.Lock()
	// adminMu exists to serialize exactly this mutation; queries never
	// take it, so holding it across the update stalls only other admins.
	//hopdb:ignore lockscope the update IS the critical section and readers never contend on adminMu
	applied, err := hopdb.ApplyEdgeOps(st.updater, ops)
	st.adminMu.Unlock()
	if applied > 0 && st.cache != nil {
		// Every cached pair may now answer from a stale graph.
		st.cache.purge()
	}
	ust := st.updater.UpdateStats()
	res := wire.UpdateResult{Applied: applied, Stats: &ust, Seq: ust.Seq}
	if err != nil {
		res.Error = err.Error()
		// Validation failures (bad vertex, missing edge, bad weight,
		// unknown op) are the client's fault; anything else — e.g. a
		// failed internal rebuild — is ours and must not masquerade as
		// a malformed request.
		status := http.StatusInternalServerError
		for _, sentinel := range []error{hopdb.ErrNoEdge, hopdb.ErrVertexRange, hopdb.ErrSelfLoop, hopdb.ErrWeightRange, hopdb.ErrUnknownOp} {
			if errors.Is(err, sentinel) {
				status = http.StatusBadRequest
				break
			}
		}
		wire.WriteJSON(w, status, res)
		return
	}
	wire.WriteJSON(w, http.StatusOK, res)
}

// handleReplicationLog serves the mutation journal: GET
// /v1/{ds}/admin/replication/log?since=N[&max=M] answers the ops
// committed after sequence N so a replica (or a chained one — replicas
// serve their own journal too) can replay them. Authorization (write
// scope) happens in dsRoute. 410 Gone means the cursor fell out of the
// retained window and the puller must reseed from a snapshot.
func (s *Server) handleReplicationLog(st *dsState, w http.ResponseWriter, r *http.Request) {
	if st.rep == nil {
		wire.WriteError(w, http.StatusNotImplemented,
			fmt.Sprintf("the %s backend does not journal mutations; replication needs hopdb-serve -updates", st.backend.Backend))
		return
	}
	q := r.URL.Query()
	parse := func(name string, def int64) (int64, bool) {
		raw := q.Get(name)
		if raw == "" {
			return def, true
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			wire.WriteError(w, http.StatusBadRequest, fmt.Sprintf("parameter %s=%q is not a non-negative integer", name, raw))
			return 0, false
		}
		return v, true
	}
	since, ok := parse("since", 0)
	if !ok {
		return
	}
	max, ok := parse("max", int64(s.cfg.MaxBatch))
	if !ok {
		return
	}
	// The clamp is unconditional: max=0 must not disable the cap and let
	// one request serialize (and copy, under the maintenance lock) a
	// million-op journal.
	if max <= 0 || max > int64(s.cfg.MaxBatch) {
		max = int64(s.cfg.MaxBatch)
	}
	log, err := st.rep.ReplicationLog(since, int(max))
	switch {
	case errors.Is(err, hopdb.ErrJournalGap):
		wire.WriteError(w, http.StatusGone, err.Error())
		return
	case errors.Is(err, hopdb.ErrSeqGap):
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	case err != nil:
		wire.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if log.Ops == nil {
		// Keep the documented shape: a caught-up pull answers
		// {"ops":[]}, never {"ops":null}.
		log.Ops = []wire.SeqEdgeOp{}
	}
	wire.WriteJSON(w, http.StatusOK, log)
}

// handleMetrics serves the Prometheus text exposition (plaintext, no
// client library): global query counters and latency quantiles (plus
// the default dataset's cache/update/index series under their original
// unlabeled names), and the same series per dataset under
// hopdb_dataset_* with a dataset label.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	uptime := s.now().Sub(s.start).Seconds()
	queries := s.queries.Load()
	w.Header().Set("Content-Type", metrics.ContentType)
	m := metrics.NewWriter(w)
	m.Metric("hopdb_up", "Whether the server is serving.", "gauge", 1)
	m.Metric("hopdb_uptime_seconds", "Seconds since the server started.", "gauge", uptime)
	m.Metric("hopdb_queries_total", "Individual pair lookups answered, all datasets.", "counter", float64(queries))
	qps := 0.0
	if uptime > 0 {
		qps = float64(queries) / uptime
	}
	m.Metric("hopdb_qps", "Lifetime average pair lookups per second, all datasets.", "gauge", qps)
	m.Metric("hopdb_datasets", "Attached datasets.", "gauge", float64(s.reg.Len()))
	if s.cfg.MaxInflightPairs > 0 {
		m.Metric("hopdb_inflight_pairs", "Batch pairs currently admitted.", "gauge", float64(s.inflight.Load()))
	}

	snap := s.reg.Snapshot()
	// The original unlabeled series stay pinned to the default dataset
	// (pre-multi-tenant dashboards read them); every dataset, default
	// included, also gets the labeled hopdb_dataset_* series.
	for _, d := range snap {
		if d.Name() != wire.DefaultDataset {
			continue
		}
		st := s.stateFor(d)
		res := s.statsFor(st)
		m.Metric("hopdb_index_vertices", "Indexed vertices.", "gauge", float64(res.Vertices))
		m.Metric("hopdb_index_size_bytes", "Serialized label size.", "gauge", float64(res.SizeBytes))
		if res.Cache != nil {
			m.Metric("hopdb_cache_hits_total", "Distance cache hits.", "counter", float64(res.Cache.Hits))
			m.Metric("hopdb_cache_misses_total", "Distance cache misses.", "counter", float64(res.Cache.Misses))
			m.Metric("hopdb_cache_hit_rate", "Distance cache hit rate.", "gauge", res.Cache.HitRate)
			m.Metric("hopdb_cache_entries", "Distance cache resident entries.", "gauge", float64(res.Cache.Entries))
		}
		if res.Updates != nil {
			m.Metric("hopdb_update_epoch", "Published label epoch.", "gauge", float64(res.Updates.Epoch))
			m.Metric("hopdb_update_seq", "Last committed journal sequence number.", "gauge", float64(res.Updates.Seq))
			m.Metric("hopdb_update_inserts_total", "Effective edge inserts.", "counter", float64(res.Updates.Inserts))
			m.Metric("hopdb_update_deletes_total", "Effective edge deletes.", "counter", float64(res.Updates.Deletes))
			m.Metric("hopdb_update_staleness", "Dirty-vertex fraction since the last full rebuild.", "gauge", res.Updates.Staleness)
		}
	}
	m.Summary("hopdb_request_duration_seconds",
		"Query request latency over a sliding window of recent requests.", &s.lat)
	for _, d := range snap {
		st := s.stateFor(d)
		res := s.statsFor(st)
		lb := "dataset=" + d.Name()
		m.Metric("hopdb_dataset_queries_total", "Individual pair lookups answered, per dataset.", "counter", float64(res.Queries), lb)
		m.Metric("hopdb_dataset_qps", "Lifetime average pair lookups per second, per dataset.", "gauge", res.QPS, lb)
		m.Metric("hopdb_dataset_index_vertices", "Indexed vertices, per dataset.", "gauge", float64(res.Vertices), lb)
		m.Metric("hopdb_dataset_index_size_bytes", "Serialized label size, per dataset.", "gauge", float64(res.SizeBytes), lb)
		m.Summary("hopdb_dataset_request_duration_seconds",
			"Query request latency over a sliding window, per dataset.", &st.lat, lb)
		if res.Cache != nil {
			m.Metric("hopdb_dataset_cache_hits_total", "Distance cache hits, per dataset.", "counter", float64(res.Cache.Hits), lb)
			m.Metric("hopdb_dataset_cache_misses_total", "Distance cache misses, per dataset.", "counter", float64(res.Cache.Misses), lb)
			m.Metric("hopdb_dataset_cache_hit_rate", "Distance cache hit rate, per dataset.", "gauge", res.Cache.HitRate, lb)
		}
		if res.Updates != nil {
			m.Metric("hopdb_dataset_update_epoch", "Published label epoch, per dataset.", "gauge", float64(res.Updates.Epoch), lb)
			m.Metric("hopdb_dataset_update_seq", "Last committed journal sequence number, per dataset.", "gauge", float64(res.Updates.Seq), lb)
		}
		d.Release()
	}
	// A write error mid-exposition leaves a partial response; there is
	// nothing useful to do about it.
	_ = m.Err()
}

// statsFor snapshots one dataset's serving counters (served as
// /v1/{ds}/stats). The cache section is present only when the cache is
// enabled, the updates section only when the backend accepts online
// edge updates, and the backend kind tells operators which regime
// (heap/mmap/disk/remote/shard) is answering. Datasets always lists
// everything attached — routers read it to learn what this server
// serves.
func (s *Server) statsFor(st *dsState) StatsResult {
	uptime := s.now().Sub(s.start).Seconds()
	queries := st.queries.Load()
	bst := st.q.Stats()
	res := StatsResult{
		Dataset:       st.ds.Name(),
		Backend:       string(bst.Backend),
		Kernel:        string(bst.Kernel),
		BitParallel:   bst.BitParallel,
		Directed:      bst.Directed,
		Vertices:      bst.Vertices,
		Entries:       bst.Entries,
		SizeBytes:     bst.SizeBytes,
		UptimeSeconds: uptime,
		Queries:       queries,
		Datasets:      s.reg.Names(),
		Shard:         bst.Shard,
	}
	if uptime > 0 {
		res.QPS = float64(queries) / uptime
	}
	if st.cache != nil {
		hits, misses := st.cache.hits.Load(), st.cache.misses.Load()
		cs := &CacheStats{
			Capacity: st.cache.capacity(),
			Entries:  st.cache.len(),
			Hits:     hits,
			Misses:   misses,
		}
		if hits+misses > 0 {
			cs.HitRate = float64(hits) / float64(hits+misses)
		}
		res.Cache = cs
	}
	if st.updater != nil {
		us := st.updater.UpdateStats()
		res.Updates = &us
	}
	return res
}

// Stats snapshots the default dataset's serving counters (the legacy
// single-tenant view; /v1/stats serves the same bytes). Without a
// default dataset it reports only the server-wide counters.
func (s *Server) Stats() StatsResult {
	if d, st := s.resolve(wire.DefaultDataset); d != nil {
		defer d.Release()
		return s.statsFor(st)
	}
	uptime := s.now().Sub(s.start).Seconds()
	queries := s.queries.Load()
	res := StatsResult{
		UptimeSeconds: uptime,
		Queries:       queries,
		Datasets:      s.reg.Names(),
	}
	if uptime > 0 {
		res.QPS = float64(queries) / uptime
	}
	return res
}

func (s *Server) handleStats(st *dsState, w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.statsFor(st))
}
