package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	hopdb "repro"
	"repro/internal/gen"
	"repro/internal/wire"
)

// The serving benchmarks below drive the handler in process with
// hub-skewed traffic: a 4,000-vertex GLP graph at density 10, pair
// endpoints drawn zipf(1.1) over the degree ranking, 256-pair binary
// batches, two batch workers, and a 16,384-entry distance cache when it
// is on. Run with
//
//	go test ./internal/server -run '^$' -bench 'BenchmarkServer' -benchmem
const (
	benchVertices  = 4000
	benchDensity   = 10
	benchPoolPairs = 1 << 18
	benchBatch     = 256
	benchCache     = 16384
)

var benchFixture = sync.OnceValues(func() (*hopdb.Index, []hopdb.QueryPair) {
	g, err := gen.GLP(gen.DefaultGLP(benchVertices, benchDensity, 1))
	if err != nil {
		panic(err)
	}
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		panic(err)
	}
	byDeg := make([]int32, g.N())
	for i := range byDeg {
		byDeg[i] = int32(i)
	}
	slices.SortStableFunc(byDeg, func(a, b int32) int { return int(g.Degree(b)) - int(g.Degree(a)) })
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(byDeg)-1))
	pairs := make([]hopdb.QueryPair, benchPoolPairs)
	for i := range pairs {
		pairs[i] = hopdb.QueryPair{S: byDeg[z.Uint64()], T: byDeg[z.Uint64()]}
	}
	return idx, pairs
})

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

func (w *discardWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
}

// benchServers runs fn once with the cache off and once with it on.
func benchServers(b *testing.B, fn func(b *testing.B, h http.Handler, pairs []hopdb.QueryPair)) {
	idx, pairs := benchFixture()
	for _, entries := range []int{0, benchCache} {
		name := "cache=off"
		if entries > 0 {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			fn(b, New(idx, Config{CacheEntries: entries, Workers: 2}).Handler(), pairs)
		})
	}
}

// BenchmarkServerBatch times one 256-pair binary POST /v1/batch.
func BenchmarkServerBatch(b *testing.B) {
	benchServers(b, func(b *testing.B, h http.Handler, pairs []hopdb.QueryPair) {
		bodies := make([][]byte, len(pairs)/benchBatch)
		for i := range bodies {
			bodies[i] = wire.AppendBatchRequest(nil, pairs[i*benchBatch:(i+1)*benchBatch])
		}
		w := &discardWriter{h: http.Header{}}
		rd := new(bytes.Reader)
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
		req.Header.Set("Content-Type", wire.ContentTypeBinaryBatch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(bodies[i%len(bodies)])
			req.Body = io.NopCloser(rd)
			w.reset()
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("batch status %d", w.code)
			}
		}
		b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "pairs/s")
	})
}

// BenchmarkServerGet times one GET /v1/distance. Every iteration sends
// a request without a request id, as the serving benchmark's client
// does, so the server mints one each time.
func BenchmarkServerGet(b *testing.B) {
	benchServers(b, func(b *testing.B, h http.Handler, pairs []hopdb.QueryPair) {
		queries := make([]string, len(pairs))
		for i, p := range pairs {
			queries[i] = fmt.Sprintf("s=%d&t=%d", p.S, p.T)
		}
		w := &discardWriter{h: http.Header{}}
		req := inprocRequest(b, http.MethodGet, "/v1/distance")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.URL.RawQuery = queries[i%len(queries)]
			w.reset()
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("distance status %d", w.code)
			}
		}
		if id := req.Header.Get(wire.HeaderRequestID); id != "" {
			b.Fatalf("the handler wrote request id %q into the caller's request", id)
		}
	})
}
