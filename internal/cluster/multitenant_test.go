package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hopdb "repro"
	"repro/client"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wire"
)

// pathIndexN builds an index over the path 0-1-...-(n-1).
func pathIndexN(t *testing.T, n int32) *hopdb.Index {
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

// startNamedReplica serves idx as the only dataset, under name — no
// "default" — and returns the server (for its access log) and endpoint.
func startNamedReplica(t *testing.T, name string, idx *hopdb.Index) (*server.Server, *httptest.Server) {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Attach(name, idx, false); err != nil {
		t.Fatal(err)
	}
	srv := server.NewRegistry(reg, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterDatasetAwareScatter fronts two replicas serving disjoint
// datasets: the router must send each /v1/{dataset}/* request only to a
// replica advertising that dataset, and report the union in its stats.
func TestRouterDatasetAwareScatter(t *testing.T) {
	_, ra := startNamedReplica(t, "a", pathIndexN(t, 4)) // 0..3: d(0,3)=3
	_, rb := startNamedReplica(t, "b", pathIndexN(t, 3)) // 0..2: 3 unknown
	rt, ts := newTestRouter(t, []string{ra.URL, rb.URL}, RouterConfig{})

	statusOf := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	waitFor(t, "both datasets discovered", func() bool {
		return statusOf("/v1/a/distance?s=0&t=1") == 200 && statusOf("/v1/b/distance?s=0&t=1") == 200
	})

	cases := []struct {
		path, body string
	}{
		{"/v1/a/distance?s=0&t=3", `{"s":0,"t":3,"distance":3,"reachable":true}` + "\n"},
		{"/v1/b/distance?s=0&t=3", `{"s":0,"t":3,"reachable":false}` + "\n"},
	}
	// Repeat so both answers stay consistent whatever replica the
	// balancer would otherwise prefer — misrouting would hit a 404.
	for i := 0; i < 10; i++ {
		for _, c := range cases {
			resp, err := http.Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 || string(body) != c.body {
				t.Fatalf("GET %s = %d %q, want 200 %q", c.path, resp.StatusCode, body, c.body)
			}
		}
	}

	// A dataset-scoped stats request reaches a serving replica.
	resp, err := http.Get(ts.URL + "/v1/b/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st wire.StatsResult
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Dataset != "b" || st.Vertices != 3 {
		t.Fatalf("/v1/b/stats = %+v, want dataset b with 3 vertices", st)
	}

	// A dataset nobody serves has no eligible replica: 503, not a
	// misrouted 404.
	if got := statusOf("/v1/nope/distance?s=0&t=1"); got != http.StatusServiceUnavailable {
		t.Fatalf("unserved dataset = %d, want 503", got)
	}

	// The router's own stats report the fleet-wide dataset union.
	rs := rt.Stats()
	if len(rs.Datasets) != 2 || rs.Datasets[0] != "a" || rs.Datasets[1] != "b" {
		t.Fatalf("router datasets = %v, want [a b]", rs.Datasets)
	}
}

// TestRequestIDFlowsThroughTiers drives client -> router -> replica and
// asserts one request id shows up in the access logs of both tiers.
func TestRequestIDFlowsThroughTiers(t *testing.T) {
	idx, _ := buildIndex(t)
	reg := registry.New()
	if _, err := reg.Attach(wire.DefaultDataset, idx, false); err != nil {
		t.Fatal(err)
	}
	srv := server.NewRegistry(reg, server.Config{})
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	rt, ts := newTestRouter(t, []string{replica.URL}, RouterConfig{Primary: replica.URL})
	waitFor(t, "replica healthy", func() bool {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == 200
	})

	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Lookup(0, 7); err != nil {
		t.Fatal(err)
	}

	var id string
	for _, e := range rt.AccessLog().Entries() {
		if e.Path == "/v1/distance" {
			id = e.ID
		}
	}
	if id == "" {
		t.Fatalf("no /v1/distance entry in the router access log: %+v", rt.AccessLog().Entries())
	}
	var found bool
	for _, e := range srv.AccessLog().Entries() {
		if e.Path == "/v1/distance" && e.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("request id %q from the router log missing in the replica log: %+v",
			id, srv.AccessLog().Entries())
	}

	// A request without an id gets one minted at the router, which
	// relays it: the replica logs the id the router answered with.
	resp, err := http.Get(ts.URL + "/v1/distance?s=0&t=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(wire.HeaderRequestID)
	if minted == "" || minted == id {
		t.Fatalf("router answered id %q, want a fresh one", minted)
	}
	found = false
	for _, e := range srv.AccessLog().Entries() {
		found = found || (e.Query == "s=0&t=9" && e.ID == minted)
	}
	if !found {
		t.Fatalf("router-minted id %q missing in the replica log: %+v", minted, srv.AccessLog().Entries())
	}

	// So does an admin request the router proxies to the primary.
	resp, err = http.Get(ts.URL + "/v1/admin/replication/log?since=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted = resp.Header.Get(wire.HeaderRequestID)
	found = false
	for _, e := range srv.AccessLog().Entries() {
		found = found || (e.Path == "/v1/admin/replication/log" && e.ID == minted)
	}
	if minted == "" || !found {
		t.Fatalf("proxied admin request: router id %q missing in the primary log: %+v", minted, srv.AccessLog().Entries())
	}
}

// TestRouterMethodNotAllowed sweeps the router's routes with wrong
// methods, pinning 405 + Allow (the same contract the replicas answer).
func TestRouterMethodNotAllowed(t *testing.T) {
	idx, _ := buildIndex(t)
	replica := startReplica(t, idx, server.Config{})
	_, ts := newTestRouter(t, []string{replica.URL}, RouterConfig{})

	var routes []struct{ method, path, allow string }
	addGet := func(p string) {
		routes = append(routes, struct{ method, path, allow string }{http.MethodPost, p, "GET"})
	}
	addPost := func(p string) {
		routes = append(routes, struct{ method, path, allow string }{http.MethodGet, p, "POST"})
	}
	for _, prefix := range []string{"/v1/a", "/v1"} {
		addGet(prefix + "/distance")
		addGet(prefix + "/path")
		addPost(prefix + "/batch")
	}
	addGet("/v1/a/stats")
	addGet("/v1/healthz")
	addGet("/v1/stats")
	addGet("/v1/metrics")
	addGet("/v1/admin/accesslog")

	for _, rtc := range routes {
		req, err := http.NewRequest(rtc.method, ts.URL+rtc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d %q, want 405", rtc.method, rtc.path, resp.StatusCode, body)
			continue
		}
		if got := resp.Header.Get("Allow"); got != rtc.allow {
			t.Errorf("%s %s Allow = %q, want %q", rtc.method, rtc.path, got, rtc.allow)
		}
	}
}
