package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hopdb "repro"
	"repro/internal/wire"
)

// testUpdatableQuerier opens the two-component test graph as an
// updatable backend (heap labels + graph, via a temp save).
func testUpdatableQuerier(t *testing.T) hopdb.Querier {
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
	path := filepath.Join(t.TempDir(), "upd.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := hopdb.Open(path, hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// postAdmin sends an admin request with the given token and body.
func postAdmin(t *testing.T, url, token, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/admin/edges", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	respBody, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return resp.StatusCode, string(respBody)
}

func TestAdminDisabledWithoutToken(t *testing.T) {
	s := New(testUpdatableQuerier(t), Config{}) // no AdminToken
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	status, body := postAdmin(t, ts.URL, "whatever", `[{"op":"insert","u":0,"v":4}]`)
	if status != http.StatusForbidden {
		t.Fatalf("admin without configured token: status %d (%s), want 403", status, body)
	}
}

func TestAdminAuth(t *testing.T) {
	s := New(testUpdatableQuerier(t), Config{AdminToken: "sesame"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if status, body := postAdmin(t, ts.URL, "", `[]`); status != http.StatusUnauthorized {
		t.Fatalf("missing token: status %d (%s), want 401", status, body)
	}
	if status, body := postAdmin(t, ts.URL, "wrong", `[]`); status != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d (%s), want 401", status, body)
	}
	if status, body := postAdmin(t, ts.URL, "sesame", `[]`); status != http.StatusOK {
		t.Fatalf("valid token: status %d (%s), want 200", status, body)
	}
	// Method gating.
	resp, err := http.Get(ts.URL + "/v1/admin/edges")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET admin: status %d, want 405", resp.StatusCode)
	}
}

func TestAdminReadOnlyBackend(t *testing.T) {
	// A plain heap index is not updatable: the admin surface must answer
	// 501, not mutate anything.
	s := New(testIndex(t), Config{AdminToken: "sesame"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	status, body := postAdmin(t, ts.URL, "sesame", `[{"op":"insert","u":0,"v":4}]`)
	if status != http.StatusNotImplemented {
		t.Fatalf("read-only backend: status %d (%s), want 501", status, body)
	}
}

func TestAdminInsertDeleteRoundTrip(t *testing.T) {
	s := New(testUpdatableQuerier(t), Config{AdminToken: "sesame"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// 0 and 4 start in different components.
	if status, body := get(t, ts.URL+"/v1/distance?s=0&t=4"); status != 200 || !strings.Contains(body, `"reachable":false`) {
		t.Fatalf("precondition: %d %s", status, body)
	}

	status, body := postAdmin(t, ts.URL, "sesame", `[{"op":"insert","u":3,"v":4}]`)
	if status != http.StatusOK {
		t.Fatalf("insert: status %d (%s)", status, body)
	}
	var res wire.UpdateResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if res.Applied != 1 || res.Stats == nil || res.Stats.Inserts != 1 || res.Stats.Epoch != 1 {
		t.Fatalf("insert result = %s", body)
	}

	if status, body := get(t, ts.URL+"/v1/distance?s=0&t=4"); status != 200 || !strings.Contains(body, `"distance":4`) {
		t.Fatalf("after insert: %d %s, want distance 4", status, body)
	}

	// An updatable index implements Pather against the live graph:
	// /v1/path must reflect the update, not 501.
	if status, body := get(t, ts.URL+"/v1/path?s=0&t=4"); status != 200 || !strings.Contains(body, `"path":[0,1,2,3,4]`) {
		t.Fatalf("path after insert: %d %s", status, body)
	}

	status, body = postAdmin(t, ts.URL, "sesame", `[{"op":"delete","u":3,"v":4}]`)
	if status != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", status, body)
	}
	if status, body := get(t, ts.URL+"/v1/distance?s=0&t=4"); status != 200 || !strings.Contains(body, `"reachable":false`) {
		t.Fatalf("after delete: %d %s, want unreachable", status, body)
	}
	if status, _ := get(t, ts.URL+"/v1/path?s=0&t=4"); status != http.StatusNotFound {
		t.Fatalf("path after delete: status %d, want 404 unreachable", status)
	}
}

func TestAdminPurgesDistanceCache(t *testing.T) {
	// With the cache enabled, an applied update must invalidate cached
	// pairs — the cached pre-update answer would otherwise be served
	// forever.
	s := New(testUpdatableQuerier(t), Config{AdminToken: "sesame", CacheEntries: 1024})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Prime the cache with the pre-update answer (twice, so it is
	// definitely a hit path).
	for i := 0; i < 2; i++ {
		if _, body := get(t, ts.URL+"/v1/distance?s=0&t=4"); !strings.Contains(body, `"reachable":false`) {
			t.Fatalf("precondition: %s", body)
		}
	}
	if status, body := postAdmin(t, ts.URL, "sesame", `[{"op":"insert","u":3,"v":4}]`); status != http.StatusOK {
		t.Fatalf("insert: %d (%s)", status, body)
	}
	if _, body := get(t, ts.URL+"/v1/distance?s=0&t=4"); !strings.Contains(body, `"distance":4`) {
		t.Fatalf("after insert the cached stale answer survived: %s", body)
	}
}

func TestAdminMalformedAndPartial(t *testing.T) {
	s := New(testUpdatableQuerier(t), Config{AdminToken: "sesame", MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		name, body string
		status     int
	}{
		{"not json", `nope`, http.StatusBadRequest},
		{"object not array", `{"op":"insert","u":0,"v":4}`, http.StatusBadRequest},
		{"unknown field", `[{"op":"insert","u":0,"v":4,"x":1}]`, http.StatusBadRequest},
		{"trailing data", `[] []`, http.StatusBadRequest},
		{"too many ops", `[{"op":"delete","u":0,"v":1},{"op":"delete","u":1,"v":2},{"op":"delete","u":2,"v":3},{"op":"delete","u":4,"v":5},{"op":"insert","u":0,"v":1}]`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if status, body := postAdmin(t, ts.URL, "sesame", c.body); status != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, status, body, c.status)
		}
	}

	// Partial application: op 0 applies, op 1 fails (edge missing), op 2
	// is never attempted. The response reports applied=1.
	status, body := postAdmin(t, ts.URL, "sesame",
		`[{"op":"insert","u":0,"v":5},{"op":"delete","u":0,"v":3},{"op":"insert","u":1,"v":4}]`)
	if status != http.StatusBadRequest {
		t.Fatalf("partial batch: status %d (%s), want 400", status, body)
	}
	var res wire.UpdateResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Error == "" {
		t.Fatalf("partial batch result = %s, want applied=1 with an error", body)
	}
	// The applied op is visible; the never-attempted one is not.
	if _, body := get(t, ts.URL+"/v1/distance?s=0&t=5"); !strings.Contains(body, `"distance":1`) {
		t.Fatalf("applied prefix op not visible: %s", body)
	}
	if _, body := get(t, ts.URL+"/v1/distance?s=1&t=4"); !strings.Contains(body, `"distance":2`) {
		// 1-0-5-4? No: 1 reaches 4 only through 0-5? 0-5 was inserted;
		// 4-5 exists; so 1-0-5-4 = 3. The never-attempted insert (1,4)
		// would have made it 1.
		if !strings.Contains(body, `"distance":3`) {
			t.Fatalf("unexpected distance after partial batch: %s", body)
		}
	}
}

func TestStatsUpdatesSection(t *testing.T) {
	s := New(testUpdatableQuerier(t), Config{AdminToken: "sesame"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if status, body := postAdmin(t, ts.URL, "sesame", `[{"op":"insert","u":3,"v":4},{"op":"delete","u":4,"v":5}]`); status != 200 {
		t.Fatalf("updates: %d (%s)", status, body)
	}
	_, body := get(t, ts.URL+"/v1/stats")
	var st wire.StatsResult
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Updates == nil {
		t.Fatalf("stats lacks updates section: %s", body)
	}
	if st.Updates.Inserts != 1 || st.Updates.Deletes != 1 || st.Updates.Epoch != 2 {
		t.Fatalf("updates section = %+v", st.Updates)
	}
	// The overlay reports itself: two mutations either left replaced
	// rows in it or were folded into a fresh base.
	if st.Updates.OverlayRows == 0 && st.Updates.Compactions == 0 {
		t.Fatalf("updates section shows neither an overlay nor a compaction: %+v", st.Updates)
	}
	var shape struct {
		Updates map[string]json.RawMessage `json:"updates"`
	}
	if err := json.Unmarshal([]byte(body), &shape); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"overlay_rows", "overlay_entries", "compactions"} {
		if _, ok := shape.Updates[key]; !ok {
			t.Fatalf("updates section lacks %q: %s", key, body)
		}
	}
	if st.Backend != string(hopdb.BackendHeap) {
		t.Fatalf("backend = %q, want heap", st.Backend)
	}

	// A read-only backend omits the section.
	s2 := New(testIndex(t), Config{})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	_, body2 := get(t, ts2.URL+"/v1/stats")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body2), &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["updates"]; present {
		t.Fatalf("read-only stats includes updates section: %s", body2)
	}
}

// TestStatsDeterministicClock pins the uptime/QPS arithmetic to an
// injected clock: 90 queries over a fixed 45-second window must report
// exactly 45s uptime and 2 QPS, with no wall-clock flakiness.
func TestStatsDeterministicClock(t *testing.T) {
	s := New(testIndex(t), Config{})
	base := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	s.start = base
	s.now = func() time.Time { return base.Add(45 * time.Second) }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 90; i++ {
		get(t, ts.URL+"/v1/distance?s=0&t=3")
	}
	_, body := get(t, ts.URL+"/v1/stats")
	var st wire.StatsResult
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	// The stats request itself does not bump the query counter.
	if st.Queries != 90 {
		t.Fatalf("queries = %d, want 90", st.Queries)
	}
	if st.UptimeSeconds != 45 {
		t.Fatalf("uptime = %v, want exactly 45", st.UptimeSeconds)
	}
	if st.QPS != 2 {
		t.Fatalf("qps = %v, want exactly 2", st.QPS)
	}
}

// TestStatsDeterministicClockZeroWindow covers the uptime == 0 guard:
// QPS must be omitted (zero), not NaN/Inf, and the cache-disabled shape
// must omit the cache section.
func TestStatsDeterministicClockZeroWindow(t *testing.T) {
	s := New(testIndex(t), Config{})
	base := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	s.start = base
	s.now = func() time.Time { return base }
	res := s.Stats()
	if res.UptimeSeconds != 0 || res.QPS != 0 {
		t.Fatalf("zero window: uptime %v qps %v, want 0/0", res.UptimeSeconds, res.QPS)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["cache"]; present {
		t.Fatalf("cache disabled but stats has a cache section: %s", body)
	}
	if _, present := raw["updates"]; present {
		t.Fatalf("read-only backend but stats has an updates section: %s", body)
	}
}
