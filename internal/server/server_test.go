package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	hopdb "repro"
	"repro/internal/wire"
)

// testIndex builds an index over two components: a path 0-1-2-3 and an
// edge 4-5, so both reachable and unreachable pairs exist.
func testIndex(t *testing.T) *hopdb.Index {
	t.Helper()
	b := hopdb.NewGraphBuilder(false, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 5, 1)
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testIndex(t), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDistanceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		query  string
		status int
		body   string // exact body including trailing newline
	}{
		{"s=0&t=3", 200, `{"s":0,"t":3,"distance":3,"reachable":true}` + "\n"},
		{"s=2&t=2", 200, `{"s":2,"t":2,"distance":0,"reachable":true}` + "\n"},
		{"s=0&t=4", 200, `{"s":0,"t":4,"reachable":false}` + "\n"},
		// Out-of-range ids are answered as unreachable, not as errors.
		{"s=0&t=999", 200, `{"s":0,"t":999,"reachable":false}` + "\n"},
		{"s=-1&t=2", 200, `{"s":-1,"t":2,"reachable":false}` + "\n"},
	}
	for _, c := range cases {
		status, body := get(t, ts.URL+"/v1/distance?"+c.query)
		if status != c.status || body != c.body {
			t.Errorf("GET /distance?%s = %d %q, want %d %q", c.query, status, body, c.status, c.body)
		}
	}
}

func TestDistanceBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"", "s=1", "t=1", "s=abc&t=1", "s=1&t=1e3", "s=99999999999&t=1"} {
		status, body := get(t, ts.URL+"/v1/distance?"+q)
		if status != http.StatusBadRequest {
			t.Errorf("GET /distance?%s = %d %q, want 400", q, status, body)
		}
		var e map[string]string
		if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
			t.Errorf("GET /distance?%s error body %q not {\"error\":...}", q, body)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/distance?s=0&t=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /distance = %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 64, Workers: 4})
	pairs := [][2]int32{{0, 3}, {3, 0}, {2, 2}, {0, 4}, {1, 3}, {0, 999}}
	body, _ := json.Marshal(pairs)
	// Two rounds: batches bypass the distance cache, so the second round
	// answers from the backend exactly as the first did.
	var first []wire.DistanceResult
	for round := 0; round < 2; round++ {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var br wire.BatchResult
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(br.Results) != len(pairs) {
			t.Fatalf("round %d: status %d, %d results", round, resp.StatusCode, len(br.Results))
		}
		for i, p := range pairs {
			want, wantOK := s.q.Distance(p[0], p[1])
			r := br.Results[i]
			if r.S != p[0] || r.T != p[1] || r.Reachable != wantOK {
				t.Fatalf("round %d result %d = %+v, want s=%d t=%d reachable=%v", round, i, r, p[0], p[1], wantOK)
			}
			if wantOK && (r.Distance == nil || *r.Distance != want) {
				t.Fatalf("round %d result %d distance = %v, want %d", round, i, r.Distance, want)
			}
			if !wantOK && r.Distance != nil {
				t.Fatalf("round %d result %d: unreachable pair carries distance %d", round, i, *r.Distance)
			}
		}
		if round == 0 {
			first = br.Results
		} else if !reflect.DeepEqual(br.Results, first) {
			t.Fatalf("round 1 answered %+v, round 0 %+v", br.Results, first)
		}
	}
	assertBatchesSkipCache(t, s, ts)
}

// assertBatchesSkipCache checks, after two batch rounds, that batches
// neither read nor filled the distance cache, and that a GET of a pair
// those batches answered first misses, then hits.
func assertBatchesSkipCache(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	if c := s.Stats().Cache; c == nil || c.Hits != 0 || c.Misses != 0 || c.Entries != 0 {
		t.Fatalf("batches touched the cache: %+v", c)
	}
	for i, want := range []CacheStats{{Hits: 0, Misses: 1}, {Hits: 1, Misses: 1}} {
		if status, body := get(t, ts.URL+"/v1/distance?s=0&t=3"); status != 200 || !strings.Contains(body, `"distance":3`) {
			t.Fatalf("GET %d after the batches = %d %q", i, status, body)
		}
		if c := s.Stats().Cache; c.Hits != want.Hits || c.Misses != want.Misses {
			t.Fatalf("after GET %d: %d hits / %d misses, want %d / %d", i, c.Hits, c.Misses, want.Hits, want.Misses)
		}
	}
}

func TestBatchRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 3})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`[[0,1],[1,2],[2,3],[3,0]]`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("4-pair batch with MaxBatch=3 = %d, want 413", code)
	}
	if code := post(`{"pairs":[[0,1]]}`); code != http.StatusBadRequest {
		t.Errorf("non-array body = %d, want 400", code)
	}
	// Pairs must have exactly two elements; the JSON decoder's default
	// zero-padding/truncation of fixed arrays must not leak through.
	if code := post(`[[5]]`); code != http.StatusBadRequest {
		t.Errorf("1-element pair = %d, want 400", code)
	}
	if code := post(`[[1,2,9]]`); code != http.StatusBadRequest {
		t.Errorf("3-element pair = %d, want 400", code)
	}
	if code := post(`[[0,1]`); code != http.StatusBadRequest {
		t.Errorf("truncated JSON = %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch = %d, want 405", resp.StatusCode)
	}
}

func TestBatchEmpty(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Twice: the first request hits a fresh pooled context (nil results
	// backing array), the second a recycled one. Both must answer [].
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`[]`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != `{"results":[]}`+"\n" {
			t.Fatalf("empty batch round %d = %d %q, want {\"results\":[]}", i, resp.StatusCode, body)
		}
	}
}

func TestBatchOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	// Far more bytes than 4 pairs can need: the body cap fires.
	huge := "[" + strings.Repeat("[1000000,1000000],", 500) + "[0,1]]"
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}
}

func TestPathEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/v1/path?s=0&t=3")
	if status != 200 {
		t.Fatalf("GET /path?s=0&t=3 = %d %q", status, body)
	}
	var pr PathResult
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Distance != 3 || len(pr.Path) != 4 || pr.Path[0] != 0 || pr.Path[3] != 3 {
		t.Fatalf("path result %+v, want distance 3 over [0 1 2 3]", pr)
	}
	if status, _ := get(t, ts.URL+"/v1/path?s=0&t=5"); status != http.StatusNotFound {
		t.Errorf("unreachable path = %d, want 404", status)
	}
	if status, _ := get(t, ts.URL+"/v1/path?s=0&t=zzz"); status != http.StatusBadRequest {
		t.Errorf("bad param path = %d, want 400", status)
	}
}

func TestPathWithoutGraph(t *testing.T) {
	idx := testIndex(t)
	file := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.Save(file); err != nil {
		t.Fatal(err)
	}
	loaded, err := hopdb.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(loaded, Config{}).Handler())
	defer ts.Close()
	status, _ := get(t, ts.URL+"/v1/path?s=0&t=3")
	if status != http.StatusNotImplemented {
		t.Errorf("/path without graph = %d, want 501", status)
	}
	// Distance still works on the graph-less index.
	if status, body := get(t, ts.URL+"/v1/distance?s=0&t=3"); status != 200 || !strings.Contains(body, `"distance":3`) {
		t.Errorf("/distance on loaded index = %d %q", status, body)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 32})
	status, body := get(t, ts.URL+"/v1/healthz")
	if status != 200 || body != `{"status":"ok"}`+"\n" {
		t.Fatalf("/healthz = %d %q", status, body)
	}
	get(t, ts.URL+"/v1/distance?s=0&t=3")
	get(t, ts.URL+"/v1/distance?s=0&t=3")
	status, body = get(t, ts.URL+"/v1/stats")
	if status != 200 {
		t.Fatalf("/stats = %d", status)
	}
	var st StatsResult
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Vertices != 6 || st.Queries != 2 {
		t.Errorf("stats = %+v, want 6 vertices / 2 queries", st)
	}
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
}

// TestConcurrentClients hammers /distance and /batch from many goroutines
// (run under -race in CI) and cross-checks every answer against the
// in-process index.
func TestConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 128, Workers: 4})
	client := ts.Client()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				sv, tv := int32(rng.Intn(6)), int32(rng.Intn(6))
				if i%2 == 0 {
					resp, err := client.Get(fmt.Sprintf("%s/v1/distance?s=%d&t=%d", ts.URL, sv, tv))
					if err != nil {
						t.Error(err)
						return
					}
					var dr wire.DistanceResult
					err = json.NewDecoder(resp.Body).Decode(&dr)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					want, wantOK := s.q.Distance(sv, tv)
					if dr.Reachable != wantOK || (wantOK && *dr.Distance != want) {
						t.Errorf("distance(%d,%d) = %+v, want (%d,%v)", sv, tv, dr, want, wantOK)
						return
					}
				} else {
					body := fmt.Sprintf(`[[%d,%d],[%d,%d]]`, sv, tv, tv, sv)
					resp, err := client.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					var br wire.BatchResult
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err != nil || len(br.Results) != 2 {
						t.Errorf("batch decode: %v (%d results)", err, len(br.Results))
						return
					}
					want, wantOK := s.q.Distance(sv, tv)
					if br.Results[0].Reachable != wantOK || (wantOK && *br.Results[0].Distance != want) {
						t.Errorf("batch(%d,%d) = %+v, want (%d,%v)", sv, tv, br.Results[0], want, wantOK)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestV1RouteAliases pins what is left of the first release's route
// aliases: the unversioned spellings are gone (404) while the /v1
// spellings of the same routes answer as before.
func TestV1RouteAliases(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ method, route, body, want string }{
		{http.MethodGet, "/distance?s=0&t=3", "", `"distance":3`},
		{http.MethodPost, "/batch", `[[0,3]]`, `"distance":3`},
		{http.MethodGet, "/path?s=0&t=3", "", `"path":[0,1,2,3]`},
		{http.MethodGet, "/healthz", "", `"status":"ok"`},
		{http.MethodGet, "/stats", "", `"backend":"heap"`},
	} {
		for prefix, wantStatus := range map[string]int{"": http.StatusNotFound, "/v1": http.StatusOK} {
			req, err := http.NewRequest(c.method, ts.URL+prefix+c.route, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readBody(t, resp)
			if resp.StatusCode != wantStatus {
				t.Errorf("%s %s%s = %d %q, want %d", c.method, prefix, c.route, resp.StatusCode, body, wantStatus)
			}
			if wantStatus == http.StatusOK && !strings.Contains(body, c.want) {
				t.Errorf("%s %s%s = %q, want it to contain %s", c.method, prefix, c.route, body, c.want)
			}
		}
	}
}

// TestBinaryBatch drives /v1/batch with the compact binary encoding and
// cross-checks every answer against the JSON path.
func TestBinaryBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 64})
	pairs := []hopdb.QueryPair{{S: 0, T: 3}, {S: 3, T: 0}, {S: 2, T: 2}, {S: 0, T: 4}, {S: 0, T: 999}}
	body := wire.AppendBatchRequest(nil, pairs)
	// Two rounds: batches bypass the distance cache, so both answer from
	// the backend, byte for byte alike.
	var first []byte
	for round := 0; round < 2; round++ {
		resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinaryBatch {
			t.Fatalf("round %d: response Content-Type %q", round, ct)
		}
		dists, err := wire.DecodeBatchResponse(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(dists) != len(pairs) {
			t.Fatalf("round %d: %d results for %d pairs", round, len(dists), len(pairs))
		}
		for i, p := range pairs {
			want, wantOK := s.q.Distance(p.S, p.T)
			if wantOK && dists[i] != want {
				t.Errorf("round %d: binary dist(%d,%d) = %d, want %d", round, p.S, p.T, dists[i], want)
			}
			if !wantOK && dists[i] != hopdb.Infinity {
				t.Errorf("round %d: unreachable pair answered %d, want Infinity", round, dists[i])
			}
		}
		if round == 0 {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("round 1 answered %x, round 0 %x", raw, first)
		}
	}
	assertBatchesSkipCache(t, s, ts)
}

func TestBinaryBatchRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 3})
	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	over := wire.AppendBatchRequest(nil, make([]hopdb.QueryPair, 4))
	if code := post(over); code != http.StatusRequestEntityTooLarge {
		t.Errorf("4-pair binary batch with MaxBatch=3 = %d, want 413", code)
	}
	if code := post([]byte("garbage!")); code != http.StatusBadRequest {
		t.Errorf("garbage binary body = %d, want 400", code)
	}
	good := wire.AppendBatchRequest(nil, []hopdb.QueryPair{{S: 0, T: 1}})
	if code := post(good[:len(good)-2]); code != http.StatusBadRequest {
		t.Errorf("truncated binary body = %d, want 400", code)
	}
}

// TestStatsBackendAndCacheOmission: /v1/stats must name the serving
// backend and omit the cache section entirely when the cache is off.
func TestStatsBackendAndCacheOmission(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // no cache
	status, body := get(t, ts.URL+"/v1/stats")
	if status != 200 {
		t.Fatalf("/v1/stats = %d", status)
	}
	if !strings.Contains(body, `"backend":"heap"`) {
		t.Errorf("stats missing heap backend kind: %s", body)
	}
	if strings.Contains(body, `"cache"`) {
		t.Errorf("cache disabled but stats reports a cache section: %s", body)
	}

	// An mmap-backed Querier must report itself as such.
	idx := testIndex(t)
	file := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.Save(file); err != nil {
		t.Fatal(err)
	}
	mq, err := hopdb.Open(file, hopdb.WithMmap())
	if err != nil {
		t.Fatal(err)
	}
	defer mq.Close()
	ts2 := httptest.NewServer(New(mq, Config{CacheEntries: 8}).Handler())
	defer ts2.Close()
	status, body = get(t, ts2.URL+"/v1/stats")
	if status != 200 || !strings.Contains(body, `"backend":"mmap"`) {
		t.Errorf("mmap stats = %d %s", status, body)
	}
	if !strings.Contains(body, `"cache"`) {
		t.Errorf("cache enabled but stats omits it: %s", body)
	}
}

// TestDiskBackendServing serves a WithDisk Querier: distances must match
// the in-memory index, and /v1/path must answer 501 (the disk backend
// cannot reconstruct paths).
func TestDiskBackendServing(t *testing.T) {
	idx := testIndex(t)
	file := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.Save(file); err != nil {
		t.Fatal(err)
	}
	dq, err := hopdb.Open(file, hopdb.WithDisk(hopdb.DiskOptions{CacheLabels: 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer dq.Close()
	ts := httptest.NewServer(New(dq, Config{}).Handler())
	defer ts.Close()

	for s := int32(0); s < 6; s++ {
		for u := int32(0); u < 6; u++ {
			want, wantOK := idx.Distance(s, u)
			status, body := get(t, ts.URL+fmt.Sprintf("/v1/distance?s=%d&t=%d", s, u))
			if status != 200 {
				t.Fatalf("disk /v1/distance = %d", status)
			}
			var dr wire.DistanceResult
			if err := json.Unmarshal([]byte(body), &dr); err != nil {
				t.Fatal(err)
			}
			if dr.Reachable != wantOK || (wantOK && *dr.Distance != want) {
				t.Errorf("disk dist(%d,%d) = %+v, want (%d,%v)", s, u, dr, want, wantOK)
			}
		}
	}
	if status, body := get(t, ts.URL+"/v1/path?s=0&t=3"); status != http.StatusNotImplemented {
		t.Errorf("disk /v1/path = %d %q, want 501", status, body)
	}
	if status, body := get(t, ts.URL+"/v1/stats"); status != 200 || !strings.Contains(body, `"backend":"disk"`) {
		t.Errorf("disk stats = %d %s", status, body)
	}
}

// TestDiskCorruptRowIs502: a disk-served file whose framing is intact
// but whose last label entry carries an infinite distance opens, and
// every GET reading that row answers 502 naming it instead of a wrong
// distance; the other answers stay right.
func TestDiskCorruptRowIs502(t *testing.T) {
	idx := testIndex(t)
	file := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.Save(file); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], hopdb.Infinity)
	if err := os.WriteFile(file, b, 0o644); err != nil {
		t.Fatal(err)
	}
	dq, err := hopdb.Open(file, hopdb.WithDisk(hopdb.DiskOptions{}))
	if err != nil {
		t.Fatalf("open refused an image with intact framing: %v", err)
	}
	defer dq.Close()
	ts := httptest.NewServer(New(dq, Config{}).Handler())
	defer ts.Close()

	var failed int
	for s := int32(0); s < 6; s++ {
		for u := int32(0); u < 6; u++ {
			status, body := get(t, ts.URL+fmt.Sprintf("/v1/distance?s=%d&t=%d", s, u))
			if status == http.StatusBadGateway {
				if !strings.Contains(body, "infinite distance") {
					t.Errorf("dist(%d,%d): 502 %s, want the bad row named", s, u, body)
				}
				failed++
				continue
			}
			want, wantOK := idx.Distance(s, u)
			var dr wire.DistanceResult
			if err := json.Unmarshal([]byte(body), &dr); status != 200 || err != nil {
				t.Fatalf("dist(%d,%d) = %d %s", s, u, status, body)
			}
			if dr.Reachable != wantOK || (wantOK && *dr.Distance != want) {
				t.Errorf("dist(%d,%d) = %+v, want (%d,%v)", s, u, dr, want, wantOK)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no query read the damaged row")
	}
}

// TestBatchRejectsTrailingData: json.Decoder stops after the first JSON
// value, so a concatenated or misframed body must be a 400, not a
// confidently truncated answer set.
func TestBatchRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{`[[0,1]] [[2,3]]`, `[[0,1]]garbage`, `[[0,1]] x`} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q = %d, want 400", body, resp.StatusCode)
		}
	}
	// Trailing whitespace is fine.
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("[[0,1]]  \n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace = %d, want 200", resp.StatusCode)
	}
}

// flakyQuerier wraps an index and fails every query while failing is
// set, like a disk with I/O errors or an unreachable upstream.
type flakyQuerier struct {
	idx     *hopdb.Index
	failing atomic.Bool
}

func (f *flakyQuerier) Distance(s, t int32) (uint32, bool) {
	d, ok, _ := f.Lookup(s, t)
	return d, ok
}

func (f *flakyQuerier) Lookup(s, t int32) (uint32, bool, error) {
	if f.failing.Load() {
		return hopdb.Infinity, false, errors.New("backend down")
	}
	d, ok := f.idx.Distance(s, t)
	return d, ok, nil
}

func (f *flakyQuerier) DistanceBatchInto(results []uint32, pairs []hopdb.QueryPair, workers int) []uint32 {
	out, _ := f.LookupBatchInto(results, pairs, workers)
	return out
}

func (f *flakyQuerier) LookupBatchInto(results []uint32, pairs []hopdb.QueryPair, workers int) ([]uint32, error) {
	if f.failing.Load() {
		results = results[:len(pairs)]
		for i := range results {
			results[i] = hopdb.Infinity
		}
		return results, errors.New("backend down")
	}
	return f.idx.DistanceBatchInto(results, pairs, workers), nil
}

func (f *flakyQuerier) N() int32                  { return f.idx.N() }
func (f *flakyQuerier) Stats() hopdb.QuerierStats { return f.idx.Stats() }
func (f *flakyQuerier) Close() error              { return f.idx.Close() }

// TestBackendFailureIs502NotCachedUnreachable: a failing backend must
// answer 502, and the failure must never enter the distance cache — once
// the backend recovers, the pair answers correctly.
func TestBackendFailureIs502NotCachedUnreachable(t *testing.T) {
	fq := &flakyQuerier{idx: testIndex(t)}
	ts := httptest.NewServer(New(fq, Config{CacheEntries: 64}).Handler())
	defer ts.Close()

	fq.failing.Store(true)
	if status, body := get(t, ts.URL+"/v1/distance?s=0&t=3"); status != http.StatusBadGateway {
		t.Fatalf("failing backend /v1/distance = %d %q, want 502", status, body)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`[[0,3],[1,2]]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("failing backend /v1/batch = %d, want 502", resp.StatusCode)
	}
	bin := wire.AppendBatchRequest(nil, []hopdb.QueryPair{{S: 0, T: 3}})
	resp, err = http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("failing backend binary /v1/batch = %d, want 502", resp.StatusCode)
	}

	// Recovery: the earlier failures must not have been cached as
	// unreachable.
	fq.failing.Store(false)
	status, body := get(t, ts.URL+"/v1/distance?s=0&t=3")
	if status != 200 || !strings.Contains(body, `"distance":3`) {
		t.Fatalf("recovered backend = %d %q, want distance 3", status, body)
	}
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`[[0,3],[1,2]]`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(raw), `"distance":3`) {
		t.Fatalf("recovered batch = %d %q", resp.StatusCode, raw)
	}
}
