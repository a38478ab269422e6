package cluster

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/wire"
)

// conformanceMaxBatch is the MaxBatch every front tier runs with here:
// the one the shared batch bodies (internal/wire/testdata) are written
// against.
const conformanceMaxBatch = 4

// conformanceReq is one request of the cross-tier table and the status
// every tier answers it with.
type conformanceReq struct {
	name, method, path, contentType, minSeq string
	body                                    []byte
	status                                  int
}

// loadBatchBodies reads the shared /v1/batch bodies, the seeds of
// wire's FuzzReadBatch.
func loadBatchBodies(t *testing.T) []conformanceReq {
	t.Helper()
	f, err := os.Open("../wire/testdata/batches.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var reqs []conformanceReq
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), "\t", 4)
		if len(fields) != 4 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		status, err := strconv.Atoi(fields[2])
		if err != nil {
			t.Fatalf("row %s: %v", fields[0], err)
		}
		body, err := strconv.Unquote(fields[3])
		if err != nil {
			t.Fatalf("row %s: %v", fields[0], err)
		}
		ct := "application/json"
		if fields[1] == "binary" {
			ct = wire.ContentTypeBinaryBatch
		}
		reqs = append(reqs, conformanceReq{name: "batch/" + fields[0], method: http.MethodPost,
			path: "/v1/batch", contentType: ct, body: []byte(body), status: status})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestTiersAnswerAlike sends every request of one table to a server, a
// replicated router and a sharded router over the same graph, and
// demands the same status, Content-Type, Retry-After and body from
// each: the router
// promises to answer exactly as a replica would, malformed requests and
// read-your-writes demands included.
func TestTiersAnswerAlike(t *testing.T) {
	f, idx := buildShardFleet(t, 3)
	_, sharded := newShardedRouter(t, f, RouterConfig{MaxBatch: conformanceMaxBatch})
	direct := startReplica(t, idx, server.Config{MaxBatch: conformanceMaxBatch, Workers: 2})
	_, replicated := newTestRouter(t, []string{startReplica(t, idx, server.Config{Workers: 2}).URL},
		RouterConfig{MaxBatch: conformanceMaxBatch})

	// A hub-local pair (both ranks in the hub tier) and a leaf-row pair
	// (one rank outside it).
	var hubVerts, leafVerts []int32
	for v := int32(0); v < f.m.N; v++ {
		if f.hub.Perm[v] < f.m.HubRanks {
			hubVerts = append(hubVerts, v)
		} else {
			leafVerts = append(leafVerts, v)
		}
	}
	if len(hubVerts) < 2 || len(leafVerts) == 0 {
		t.Fatalf("%d hub and %d leaf vertices, want 2 and 1", len(hubVerts), len(leafVerts))
	}
	pairs := map[string][2]int32{
		"hub-local": {hubVerts[0], hubVerts[1]},
		"leaf-row":  {hubVerts[0], leafVerts[0]},
	}

	get := func(name, query string, status int) conformanceReq {
		return conformanceReq{name: name, method: http.MethodGet, path: "/v1/distance?" + query, status: status}
	}
	reqs := []conformanceReq{
		get("get/out-of-range", "s=0&t=1000", http.StatusOK),
		get("get/negative", "s=-1&t=0", http.StatusOK),
		get("get/missing-s", "t=1", http.StatusBadRequest),
		get("get/non-numeric-t", "s=1&t=x", http.StatusBadRequest),
		get("get/t-beyond-int32", "s=1&t=2147483648", http.StatusBadRequest),
		{name: "post-on-distance", method: http.MethodPost, path: "/v1/distance?s=0&t=1", status: http.StatusMethodNotAllowed},
		{name: "get-on-batch", method: http.MethodGet, path: "/v1/batch", status: http.StatusMethodNotAllowed},
	}
	minSeqStatus := map[string]int{"3": http.StatusServiceUnavailable, "x": http.StatusBadRequest}
	for kind, p := range pairs {
		query := "s=" + itoa(p[0]) + "&t=" + itoa(p[1])
		batch := []byte("[[" + itoa(p[0]) + "," + itoa(p[1]) + "]]")
		reqs = append(reqs, get("get/"+kind, query, http.StatusOK))
		for seq, status := range minSeqStatus {
			r := get("get/"+kind+"/min-seq-"+seq, query, status)
			r.minSeq = seq
			reqs = append(reqs, r, conformanceReq{name: "batch/" + kind + "/min-seq-" + seq,
				method: http.MethodPost, path: "/v1/batch", contentType: "application/json",
				minSeq: seq, body: batch, status: status})
		}
	}
	// An empty batch, JSON and binary: every tier judges its min-seq
	// demand as a server does.
	for _, e := range []struct{ name, contentType, body string }{
		{"batch/empty", "application/json", "[]"},
		{"batch/empty-binary", wire.ContentTypeBinaryBatch, string(wire.AppendBatchRequest(nil, nil))},
	} {
		r := conformanceReq{name: e.name, method: http.MethodPost, path: "/v1/batch",
			contentType: e.contentType, body: []byte(e.body), status: http.StatusOK}
		demand := r
		demand.name, demand.minSeq, demand.status = e.name+"/min-seq-3", "3", http.StatusServiceUnavailable
		reqs = append(reqs, r, demand)
	}
	// A malformed demand is refused before a malformed body is read.
	reqs = append(reqs, conformanceReq{name: "batch/min-seq-x-bad-body", method: http.MethodPost,
		path: "/v1/batch", contentType: "application/json", minSeq: "x", body: []byte("[[5]]"),
		status: http.StatusBadRequest})
	reqs = append(reqs, loadBatchBodies(t)...)

	type answer struct {
		status                  int
		contentType, retryAfter string
		body                    string
	}
	send := func(base string, q conformanceReq) answer {
		req, err := http.NewRequest(q.method, base+q.path, bytes.NewReader(q.body))
		if err != nil {
			t.Fatal(err)
		}
		if q.contentType != "" {
			req.Header.Set("Content-Type", q.contentType)
		}
		if q.minSeq != "" {
			req.Header.Set(wire.HeaderMinSeq, q.minSeq)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), string(body)}
	}
	for _, q := range reqs {
		want := send(direct.URL, q)
		if want.status != q.status {
			t.Errorf("%s: server answered %d %q, want status %d", q.name, want.status, want.body, q.status)
		}
		for tier, base := range map[string]string{"replicated": replicated.URL, "sharded": sharded.URL} {
			if got := send(base, q); got != want {
				t.Errorf("%s: %s router answered %+v, server %+v", q.name, tier, got, want)
			}
		}
	}
}

// TestHandlersLeaveCallerRequestAlone serves requests with and without
// a request id through a server, a replicated router and a sharded
// router in process, and demands that each answers with an id but
// leaves the caller's request headers exactly as they were: net/http's
// Handler contract forbids modifying the request.
func TestHandlersLeaveCallerRequestAlone(t *testing.T) {
	f, idx := buildShardFleet(t, 3)
	sharded, _ := newShardedRouter(t, f, RouterConfig{})
	replicated, _ := newTestRouter(t, []string{startReplica(t, idx, server.Config{Workers: 2}).URL}, RouterConfig{})
	tiers := map[string]http.Handler{
		"server":     server.New(idx, server.Config{Workers: 2}).Handler(),
		"replicated": replicated.Handler(),
		"sharded":    sharded.Handler(),
	}
	waitFor(t, "replica healthy", func() bool { return replicated.pool.Healthy() > 0 })
	for tier, h := range tiers {
		for _, id := range []string{"", "trace-7"} {
			for _, method := range []string{http.MethodGet, http.MethodPost} {
				req := httptest.NewRequest(http.MethodGet, "/v1/distance?s=0&t=7", nil)
				if method == http.MethodPost {
					req = httptest.NewRequest(method, "/v1/batch", strings.NewReader("[[0,7]]"))
					req.Header.Set("Content-Type", "application/json")
				}
				if id != "" {
					req.Header.Set(wire.HeaderRequestID, id)
				}
				before := req.Header.Clone()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s %s id=%q: status %d %s", tier, method, id, rec.Code, rec.Body)
				}
				if got := rec.Header().Get(wire.HeaderRequestID); got == "" || (id != "" && got != id) {
					t.Errorf("%s %s id=%q: response id %q", tier, method, id, got)
				}
				if !reflect.DeepEqual(req.Header, before) {
					t.Errorf("%s %s id=%q: caller's headers changed from %v to %v", tier, method, id, before, req.Header)
				}
			}
		}
	}
}
