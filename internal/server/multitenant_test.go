package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hopdb "repro"
	"repro/internal/httpmw"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/wire"
)

// lineIndex builds an index over the path 0-1-...-(n-1), so vertex ids
// >= n are unreachable — a topology distinguishable from testIndex.
func lineIndex(t *testing.T, n int32) *hopdb.Index {
	t.Helper()
	b := hopdb.NewGraphBuilder(false, false)
	for v := int32(0); v < n-1; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// newMultiServer serves testIndex as "a" and a 3-vertex line as "b" —
// no "default" dataset, so per-dataset routing is the only way in.
func newMultiServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Attach("a", testIndex(t), true); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Attach("b", lineIndex(t, 3), true); err != nil {
		t.Fatal(err)
	}
	s := NewRegistry(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); reg.Close() })
	return s, ts
}

func TestMultiDatasetRouting(t *testing.T) {
	_, ts := newMultiServer(t, Config{Workers: 2})
	cases := []struct {
		path string
		body string
	}{
		// 0 and 3 are 3 apart in "a" but 3 does not exist in "b".
		{"/v1/a/distance?s=0&t=3", `{"s":0,"t":3,"distance":3,"reachable":true}` + "\n"},
		{"/v1/b/distance?s=0&t=3", `{"s":0,"t":3,"reachable":false}` + "\n"},
		{"/v1/b/distance?s=0&t=2", `{"s":0,"t":2,"distance":2,"reachable":true}` + "\n"},
	}
	for _, c := range cases {
		status, body := get(t, ts.URL+c.path)
		if status != 200 || body != c.body {
			t.Errorf("GET %s = %d %q, want 200 %q", c.path, status, body, c.body)
		}
	}

	// Batches are dataset-scoped through the same resolution.
	resp, err := http.Post(ts.URL+"/v1/b/batch", "application/json", strings.NewReader(`[[0,2],[0,3]]`))
	if err != nil {
		t.Fatal(err)
	}
	var br wire.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Results) != 2 || br.Results[0].Distance == nil || *br.Results[0].Distance != 2 || br.Results[1].Reachable {
		t.Fatalf("batch on b = %+v, want [2, unreachable]", br.Results)
	}

	// Stats name the dataset and list every attached one.
	var st StatsResult
	_, body := get(t, ts.URL+"/v1/a/stats")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Dataset != "a" || fmt.Sprint(st.Datasets) != "[a b]" {
		t.Fatalf("stats dataset/datasets = %q/%v, want a/[a b]", st.Dataset, st.Datasets)
	}

	// Unknown datasets (including the absent "default") answer 404.
	for _, p := range []string{"/v1/nope/distance?s=0&t=1", "/v1/distance?s=0&t=1"} {
		status, body := get(t, ts.URL+p)
		if status != http.StatusNotFound || !strings.Contains(body, "unknown dataset") {
			t.Errorf("GET %s = %d %q, want 404 unknown dataset", p, status, body)
		}
	}
}

// TestLegacyAliasesByteIdentical pins the compatibility contract: the
// flat /v1 and /v1/default spellings of every query route answer
// byte-identical bodies for the default dataset.
func TestLegacyAliasesByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	suffixes := []struct {
		method, suffix, body string
	}{
		{http.MethodGet, "/distance?s=0&t=3", ""},
		{http.MethodGet, "/distance?s=0&t=4", ""},
		{http.MethodGet, "/path?s=0&t=3", ""}, // 501 without a graph — still identical
		{http.MethodPost, "/batch", `[[0,3],[4,5]]`},
	}
	for _, c := range suffixes {
		var bodies, statuses []string
		for _, prefix := range []string{"/v1/default", "/v1"} {
			var (
				resp *http.Response
				err  error
			)
			if c.method == http.MethodPost {
				resp, err = http.Post(ts.URL+prefix+c.suffix, "application/json", strings.NewReader(c.body))
			} else {
				resp, err = http.Get(ts.URL + prefix + c.suffix)
			}
			if err != nil {
				t.Fatal(err)
			}
			b := readBody(t, resp)
			bodies = append(bodies, b)
			statuses = append(statuses, resp.Status)
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s %s bodies diverge across aliases: %q", c.method, c.suffix, bodies)
		}
		if statuses[0] != statuses[1] {
			t.Errorf("%s %s statuses diverge across aliases: %v", c.method, c.suffix, statuses)
		}
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mtQuerier is a minimal closable backend for attach/detach tests.
type mtQuerier struct {
	closed atomic.Bool
}

func (q *mtQuerier) Distance(s, t int32) (uint32, bool) { return 1, true }
func (q *mtQuerier) DistanceBatchInto(d []uint32, p []hopdb.QueryPair, w int) []uint32 {
	for i := range p {
		d[i] = 1
	}
	return d[:len(p)]
}
func (q *mtQuerier) N() int32 { return 2 }
func (q *mtQuerier) Stats() hopdb.QuerierStats {
	return hopdb.QuerierStats{Backend: "fake", Vertices: 2}
}
func (q *mtQuerier) Close() error {
	q.closed.Store(true)
	return nil
}

// TestHotAttachDetachUnderTraffic cycles attach/detach of a dataset
// through the admin API while concurrent readers hammer its query route
// — under -race this pins the lock-free resolution path and the
// drain-then-close rule end-to-end through HTTP.
func TestHotAttachDetachUnderTraffic(t *testing.T) {
	var (
		mu      sync.Mutex
		spawned []*mtQuerier
	)
	opener := func(spec wire.DatasetSpec) (hopdb.Querier, error) {
		q := &mtQuerier{}
		mu.Lock()
		spawned = append(spawned, q)
		mu.Unlock()
		return q, nil
	}
	_, ts := newTestServer(t, Config{Workers: 2, AdminToken: "root", Opener: opener})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/hot/distance?s=0&t=1")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("mid-cycle query = %d, want 200 or 404", resp.StatusCode)
					return
				}
			}
		}()
	}

	do := func(method, path, body string) (int, string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer root")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}
	for i := 0; i < 25; i++ {
		if st, body := do(http.MethodPost, "/v1/admin/datasets/hot", `{"path":"fake.idx"}`); st != 200 {
			t.Fatalf("cycle %d attach = %d %q", i, st, body)
		}
		if st, body := get(t, ts.URL+"/v1/hot/distance?s=0&t=1"); st != 200 {
			t.Fatalf("cycle %d query after attach = %d %q", i, st, body)
		}
		if st, body := do(http.MethodDelete, "/v1/admin/datasets/hot", ""); st != 200 {
			t.Fatalf("cycle %d detach = %d %q", i, st, body)
		}
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(spawned) != 25 {
		t.Fatalf("opener called %d times, want 25", len(spawned))
	}
	for i, q := range spawned {
		if !q.closed.Load() {
			t.Errorf("querier %d never closed after detach and drain", i)
		}
	}
}

// TestCrossDatasetGrant pins the auth matrix: a principal scoped to
// dataset "a" reads "a" but gets 403 on "b", unknown tokens get 401,
// and a full-scope principal reads everything.
func TestCrossDatasetGrant(t *testing.T) {
	_, ts := newMultiServer(t, Config{Workers: 2, Principals: []Principal{
		{Token: "t-alice", Name: "alice", Scopes: []string{ScopeRead}, Datasets: []string{"a"}},
		{Token: "t-ops", Name: "ops", Scopes: []string{ScopeRead, ScopeWrite, ScopeAdmin}},
	}})
	cases := []struct {
		token, path string
		status      int
	}{
		{"t-alice", "/v1/a/distance?s=0&t=3", 200},
		{"t-alice", "/v1/b/distance?s=0&t=2", 403},
		{"t-alice", "/v1/admin/accesslog", 403}, // read scope only
		{"t-ops", "/v1/a/distance?s=0&t=3", 200},
		{"t-ops", "/v1/b/distance?s=0&t=2", 200},
		{"t-ops", "/v1/admin/accesslog", 200},
		{"wrong", "/v1/a/distance?s=0&t=3", 401},
		{"", "/v1/a/distance?s=0&t=3", 401},
	}
	for _, c := range cases {
		req, err := http.NewRequest(http.MethodGet, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != c.status {
			t.Errorf("GET %s as %q = %d %q, want %d", c.path, c.token, resp.StatusCode, body, c.status)
		}
		if c.status == 403 && !strings.Contains(body, `"error"`) {
			t.Errorf("403 body %q not the JSON error shape", body)
		}
	}
}

// TestRateLimit drives the anonymous token bucket with a fake clock:
// burst admits, the next request sheds with 429 + Retry-After, and a
// second of refill re-admits.
func TestRateLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, RateQPS: 1, RateBurst: 2})
	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	s.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}

	query := func() (int, http.Header) {
		resp, err := http.Get(ts.URL + "/v1/distance?s=0&t=3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}
	for i := 0; i < 2; i++ {
		if st, _ := query(); st != 200 {
			t.Fatalf("query %d = %d, want 200 within burst", i, st)
		}
	}
	st, hdr := query()
	if st != http.StatusTooManyRequests {
		t.Fatalf("over-budget query = %d, want 429", st)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1 (one token at 1 qps)", hdr.Get("Retry-After"))
	}
	clockMu.Lock()
	clock = clock.Add(time.Second)
	clockMu.Unlock()
	if st, _ := query(); st != 200 {
		t.Fatalf("query after refill = %d, want 200", st)
	}
}

// TestAdmissionControl pins the batch admission controller: a batch
// exceeding MaxInflightPairs sheds with 429, a smaller one passes.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxInflightPairs: 4})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}
	if st, body := post(`[[0,1],[0,2],[0,3],[1,2],[1,3]]`); st != http.StatusTooManyRequests || !strings.Contains(body, "capacity") {
		t.Fatalf("5-pair batch over a 4-pair limit = %d %q, want 429 capacity", st, body)
	}
	if st, body := post(`[[0,1],[0,2],[0,3]]`); st != 200 {
		t.Fatalf("3-pair batch = %d %q, want 200", st, body)
	}
}

// TestRowsAdmissionAndLatency pins /v1/rows to the batch path's
// accounting: a row request counts its keys against MaxInflightPairs
// (so 2 keys over a 1-pair limit shed with 429), and every row request
// lands in the latency window.
func TestRowsAdmissionAndLatency(t *testing.T) {
	b := hopdb.NewGraphBuilder(false, false)
	for i := int32(0); i < 30; i++ {
		b.AddEdge(i, (i+1)%30, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q, err := hopdb.OpenShard(filepath.Join(dir, m.Shards[0].File))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	s := New(q, Config{Workers: 2, MaxInflightPairs: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	post := func(keys ...shard.RowKey) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/rows", shard.ContentTypeRows, bytes.NewReader(shard.AppendRowsRequest(nil, keys)))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}
	lo := m.Shards[0].Lo
	if st, body := post(shard.RowKey{Rank: lo}, shard.RowKey{Rank: lo, In: true}); st != http.StatusTooManyRequests || !strings.Contains(body, "capacity") {
		t.Fatalf("2-key rows request over a 1-pair limit = %d %q, want 429 capacity", st, body)
	}
	if st, body := post(shard.RowKey{Rank: lo}); st != http.StatusOK {
		t.Fatalf("1-key rows request = %d %q, want 200", st, body)
	}
	if n := s.lat.Count(); n != 2 {
		t.Errorf("latency window holds %d requests after two row requests, want 2", n)
	}
}

// TestAccessLogAnnotations checks the structured access log records the
// request id, resolved dataset, and authenticated principal.
func TestAccessLogAnnotations(t *testing.T) {
	_, ts := newMultiServer(t, Config{Workers: 2, Principals: []Principal{
		{Token: "t-alice", Name: "alice", Scopes: []string{ScopeRead}, Datasets: []string{"a"}},
		{Token: "t-ops", Name: "ops", Scopes: []string{ScopeRead, ScopeAdmin}},
	}})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/a/distance?s=0&t=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer t-alice")
	req.Header.Set(wire.HeaderRequestID, "it-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if got := resp.Header.Get(wire.HeaderRequestID); got != "it-42" {
		t.Fatalf("response request id = %q, want the client's it-42", got)
	}

	dreq, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/admin/accesslog", nil)
	if err != nil {
		t.Fatal(err)
	}
	dreq.Header.Set("Authorization", "Bearer t-ops")
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	var dump httpmw.Dump
	if err := json.NewDecoder(dresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	var found bool
	for _, e := range dump.Entries {
		if e.Path == "/v1/a/distance" {
			found = true
			if e.ID != "it-42" || e.Dataset != "a" || e.Principal != "alice" || e.Status != 200 {
				t.Fatalf("entry = %+v, want id=it-42 dataset=a principal=alice status=200", e)
			}
		}
	}
	if !found {
		t.Fatalf("no access-log entry for /v1/a/distance in %+v", dump.Entries)
	}
}

// TestMetricsPerDataset checks /v1/metrics grows a dataset label
// dimension while the global counters stay.
func TestMetricsPerDataset(t *testing.T) {
	_, ts := newMultiServer(t, Config{Workers: 2})
	for _, p := range []string{"/v1/a/distance?s=0&t=3", "/v1/a/distance?s=1&t=2", "/v1/b/distance?s=0&t=2"} {
		if st, body := get(t, ts.URL+p); st != 200 {
			t.Fatalf("GET %s = %d %q", p, st, body)
		}
	}
	_, body := get(t, ts.URL+"/v1/metrics")
	for _, want := range []string{
		"hopdb_queries_total 3",
		"hopdb_datasets 2",
		`hopdb_dataset_queries_total{dataset="a"} 2`,
		`hopdb_dataset_queries_total{dataset="b"} 1`,
		`hopdb_dataset_index_vertices{dataset="b"} 3`,
		`hopdb_dataset_request_duration_seconds{dataset="a",quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMethodNotAllowed sweeps every route with a wrong method and pins
// the 405 + Allow contract (satellite: table-driven over the full
// surface).
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, AdminToken: "root"})
	var routes []struct{ method, path, allow string }
	addGet := func(p string) {
		routes = append(routes, struct{ method, path, allow string }{http.MethodPost, p, "GET"})
	}
	addPost := func(p string) {
		routes = append(routes, struct{ method, path, allow string }{http.MethodGet, p, "POST"})
	}
	for _, prefix := range []string{"/v1/default", "/v1"} {
		addGet(prefix + "/distance")
		addGet(prefix + "/path")
		addGet(prefix + "/stats")
		addPost(prefix + "/batch")
		addPost(prefix + "/admin/edges")
		addGet(prefix + "/admin/replication/log")
	}
	addGet("/v1/healthz")
	addGet("/v1/metrics")
	addGet("/v1/admin/datasets")
	addGet("/v1/admin/accesslog")
	routes = append(routes, struct{ method, path, allow string }{http.MethodGet, "/v1/admin/datasets/x", "POST, DELETE"})

	for _, rt := range routes {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer root")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d %q, want 405", rt.method, rt.path, resp.StatusCode, body)
			continue
		}
		if got := resp.Header.Get("Allow"); got != rt.allow {
			t.Errorf("%s %s Allow = %q, want %q", rt.method, rt.path, got, rt.allow)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s %s 405 body %q not the JSON error shape", rt.method, rt.path, body)
		}
	}
}
