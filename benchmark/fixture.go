package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hopdb "repro"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// leafShards is the sharded topology's leaf count.
const leafShards = 4

// Warm-up sizes: enough requests to touch every pooled buffer and lazy
// path once, plus one GET per cache entry so the distance cache's hot
// head is resident before timing starts.
const (
	warmGets    = 2000
	warmBatches = 64
)

// serveFixture is a serving tier ready for load: one in-process server,
// or a router over leaf shards. Close it when done.
type serveFixture struct {
	// handler is what the in-process transport dispatches into.
	handler http.Handler
	srv     *server.Server  // single-node topology
	router  *cluster.Router // sharded topology
	fleet   *shardFleet     // sharded topology
	close   func()
}

// logf is the log sink handed to servers and routers: their panics and
// lifecycle notes go to stderr, away from the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hopdb: "+format+"\n", args...)
}

// newSingleFixture serves q from one in-process server. With a tracer
// the backend and the handler are wrapped in span-recording decorators;
// without one nothing is wrapped.
func newSingleFixture(q hopdb.Querier, cacheEntries int, tr *tracer) *serveFixture {
	if tr != nil {
		q = newTracedQuerier(q, tr)
	}
	srv := server.New(q, server.Config{
		CacheEntries: cacheEntries,
		Workers:      runtime.GOMAXPROCS(0),
		Logf:         logf,
	})
	h := srv.Handler()
	if tr != nil {
		h = &tracedHandler{next: h, tr: tr, layer: "server"}
	}
	return &serveFixture{handler: h, srv: srv, close: func() {}}
}

// shardFleet is a built and opened sharded index: the map, the
// router-resident hub and the leaf servers on loopback sockets.
type shardFleet struct {
	Map      *shard.Map
	Hub      *shard.Shard
	Dir      string
	BuildS   float64 // hopdb.BuildShards wall time
	OpenMS   float64 // opening hub and leaves
	LeafMax  int64   // largest leaf file, bytes
	HubBytes int64   // hub file, bytes
	URLs     []string

	leaves   []hopdb.Querier
	servers  []*http.Server
	serving  sync.WaitGroup
	counters leafCounters
}

// leafCounters is what the leaf-handler wrappers count during a traced
// run.
type leafCounters struct {
	rpcs      atomic.Int64 // requests leaves answered
	rowsBytes atomic.Int64 // /v1/rows response bytes
}

// newShardFleet cuts g into leafShards shards under dir, opens them and
// serves each leaf on 127.0.0.1:0. cluster.Router hard-codes its
// upstream http.Client, so router-to-leaf hops necessarily cross real
// loopback sockets.
func newShardFleet(g *graph.Graph, dir string, tr *tracer) (*shardFleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &shardFleet{Dir: dir}
	t0 := time.Now()
	m, _, err := hopdb.BuildShards(g, hopdb.Options{TempDir: dir}, hopdb.ShardConfig{Shards: leafShards, Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("BuildShards: %w", err)
	}
	f.BuildS = time.Since(t0).Seconds()
	f.Map = m

	t0 = time.Now()
	if f.Hub, err = shard.Load(filepath.Join(dir, m.HubFile)); err != nil {
		return nil, err
	}
	for _, sh := range m.Shards {
		leaf, err := hopdb.OpenShard(filepath.Join(dir, sh.File))
		if err != nil {
			f.close()
			return nil, err
		}
		f.leaves = append(f.leaves, leaf)
	}
	f.OpenMS = time.Since(t0).Seconds() * 1e3
	if st, err := os.Stat(filepath.Join(dir, m.HubFile)); err == nil {
		f.HubBytes = st.Size()
	}
	for _, sh := range m.Shards {
		if st, err := os.Stat(filepath.Join(dir, sh.File)); err == nil && st.Size() > f.LeafMax {
			f.LeafMax = st.Size()
		}
	}

	for _, leaf := range f.leaves {
		h := server.New(leaf, server.Config{Workers: runtime.GOMAXPROCS(0), Logf: logf}).Handler()
		if tr != nil {
			h = &leafHandler{next: h, tr: tr, counters: &f.counters}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		hs := &http.Server{Handler: h}
		f.servers = append(f.servers, hs)
		f.URLs = append(f.URLs, "http://"+ln.Addr().String())
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			hs.Serve(ln) // returns once close shuts the server down
		}()
	}
	return f, nil
}

// close stops the leaf servers, waits for their accept loops to end and
// releases the shard files.
func (f *shardFleet) close() {
	for _, hs := range f.servers {
		hs.Close()
	}
	f.serving.Wait()
	for _, leaf := range f.leaves {
		leaf.Close()
	}
}

// newShardedFixture builds a fleet and fronts it with a router whose
// handler is called in-process.
func newShardedFixture(g *graph.Graph, dir string, tr *tracer) (*serveFixture, error) {
	fleet, err := newShardFleet(g, dir, tr)
	if err != nil {
		return nil, err
	}
	pool := cluster.NewPool(fleet.URLs, nil, time.Hour)
	pool.Probe()
	if pool.Healthy() != len(fleet.URLs) {
		fleet.close()
		return nil, fmt.Errorf("only %d of %d leaves answered the health probe", pool.Healthy(), len(fleet.URLs))
	}
	rt, err := cluster.NewRouter(pool, cluster.RouterConfig{ShardMap: fleet.Map, Hub: fleet.Hub, Logf: logf})
	if err != nil {
		fleet.close()
		return nil, err
	}
	h := rt.Handler()
	if tr != nil {
		h = &tracedHandler{next: h, tr: tr, layer: "cluster", anchor: true}
	}
	return &serveFixture{handler: h, router: rt, fleet: fleet, close: fleet.close}, nil
}

// routeName is the last path segment of a request: distance, batch,
// rows, stats.
func routeName(r *http.Request) string {
	p := r.URL.Path
	return p[strings.LastIndexByte(p, '/')+1:]
}

// tracedHandler records a span around every request the traced caller
// dispatches in-process. With anchor set the span also becomes the
// parent of the spans leaf servers record for the same request id.
type tracedHandler struct {
	next   http.Handler
	tr     *tracer
	layer  string
	anchor bool
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.start(h.layer, routeName(r))
	if h.anchor {
		if n := requestNumber(r.Header.Get(wire.HeaderRequestID)); n != 0 {
			h.tr.anchor(n, id)
		}
	}
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// leafHandler records a span around every request a leaf server answers
// (on the server's own goroutines, joined to the router's span through
// the forwarded X-Hopdb-Request-Id) and counts RPCs and row bytes.
type leafHandler struct {
	next     http.Handler
	tr       *tracer
	counters *leafCounters
}

func (h *leafHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeName(r)
	id := h.tr.startDetached(requestNumber(r.Header.Get(wire.HeaderRequestID)), "server", "leaf_"+route)
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.tr.endDetached(id)
	if route == "rows" || route == "batch" {
		h.counters.rpcs.Add(1)
	}
	if route == "rows" {
		h.counters.rowsBytes.Add(cw.n)
	}
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// tracedQuerier records a span around every call a server makes into
// its backend. It forwards Lookuper and LookupBatcher so the server
// takes the same path it takes against the bare backend.
type tracedQuerier struct {
	hopdb.Querier
	lookup hopdb.Lookuper
	batch  hopdb.LookupBatcher
	tr     *tracer
}

// newTracedQuerier wraps q, which must implement Lookuper and
// LookupBatcher (every built-in local backend does).
func newTracedQuerier(q hopdb.Querier, tr *tracer) *tracedQuerier {
	return &tracedQuerier{Querier: q, lookup: q.(hopdb.Lookuper), batch: q.(hopdb.LookupBatcher), tr: tr}
}

func (q *tracedQuerier) Distance(s, t int32) (uint32, bool) {
	id := q.tr.start("hopdb", "distance")
	d, ok := q.Querier.Distance(s, t)
	q.tr.end(id)
	return d, ok
}

func (q *tracedQuerier) Lookup(s, t int32) (uint32, bool, error) {
	id := q.tr.start("hopdb", "distance")
	d, ok, err := q.lookup.Lookup(s, t)
	q.tr.end(id)
	return d, ok, err
}

func (q *tracedQuerier) DistanceBatchInto(results []uint32, pairs []hopdb.QueryPair, workers int) []uint32 {
	id := q.tr.start("hopdb", "batch")
	out := q.Querier.DistanceBatchInto(results, pairs, workers)
	q.tr.end(id)
	return out
}

func (q *tracedQuerier) LookupBatchInto(results []uint32, pairs []hopdb.QueryPair, workers int) ([]uint32, error) {
	id := q.tr.start("hopdb", "batch")
	out, err := q.batch.LookupBatchInto(results, pairs, workers)
	q.tr.end(id)
	return out, err
}
