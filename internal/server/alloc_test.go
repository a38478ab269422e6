package server

import (
	"bytes"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/wire"
)

// The allocation budgets of the two query requests the serving
// benchmark drives, measured over Handler() with requests shaped like
// its in-process transport's: no request id (so the id is minted), no
// body on a GET, and a response header map the writer reuses.
const (
	getAllocBudget   = 8
	batchAllocBudget = 13
)

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// inprocRequest builds a server-side request for target with no
// request id, as an in-process transport hands it to the handler.
func inprocRequest(t testing.TB, method, target string) *http.Request {
	req, err := http.NewRequest(method, "http://bench.invalid"+target, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.RequestURI = req.URL.RequestURI()
	req.RemoteAddr = "inproc"
	req.Body = http.NoBody
	return req
}

// measureAllocs runs one request through h AllocsPerRun times, into a
// writer whose header map survives between runs, and checks it answered
// 200 with an id, leaving the caller's headers alone.
func measureAllocs(t *testing.T, h http.Handler, req *http.Request, before func()) float64 {
	t.Helper()
	w := &discardWriter{h: make(http.Header, 4)}
	hdr := req.Header.Clone()
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		if before != nil {
			before()
		}
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK || w.h.Get(wire.HeaderRequestID) == "" {
		t.Fatalf("%s %s: status %d, id %q", req.Method, req.URL, w.code, w.h.Get(wire.HeaderRequestID))
	}
	if len(req.Header) != len(hdr) || req.Header.Get(wire.HeaderRequestID) != "" {
		t.Fatalf("%s %s: caller's headers changed to %v", req.Method, req.URL, req.Header)
	}
	return allocs
}

// TestGetAllocsBounded pins the allocations of one GET /v1/distance
// through Handler(), with the distance cache on and off: one request
// record (also the request's context), the request copy, the minted id,
// and the answer's bytes and Content-Type.
func TestGetAllocsBounded(t *testing.T) {
	idx, pairs := benchFixture()
	p := pairs[0]
	for _, entries := range []int{0, benchCache} {
		h := New(idx, Config{CacheEntries: entries, Workers: 2}).Handler()
		req := inprocRequest(t, http.MethodGet, "/v1/distance?s="+strconv.Itoa(int(p.S))+"&t="+strconv.Itoa(int(p.T)))
		got := measureAllocs(t, h, req, nil)
		t.Logf("cache entries %d: %v allocations per GET", entries, got)
		if got > getAllocBudget {
			t.Errorf("cache entries %d: %v allocations per GET, budget %d", entries, got, getAllocBudget)
		}
	}
}

// TestBatchAllocsBounded pins the allocations of one 256-pair binary
// POST /v1/batch through Handler(), so the per-request wrapper the
// batch shares with a GET cannot grow it unnoticed.
func TestBatchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the batch scratch is pooled, and -race makes sync.Pool drop items")
	}
	idx, pairs := benchFixture()
	body := wire.AppendBatchRequest(nil, pairs[:benchBatch])
	h := New(idx, Config{CacheEntries: benchCache, Workers: 2}).Handler()
	req := inprocRequest(t, http.MethodPost, "/v1/batch")
	req.Header.Set("Content-Type", wire.ContentTypeBinaryBatch)
	rb := &rewindBody{}
	req.Body = rb
	got := measureAllocs(t, h, req, func() { rb.Reset(body) })
	t.Logf("%v allocations per %d-pair binary batch", got, benchBatch)
	if got > batchAllocBudget {
		t.Errorf("%v allocations per %d-pair binary batch, budget %d", got, benchBatch, batchAllocBudget)
	}
}
