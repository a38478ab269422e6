package client_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	hopdb "repro"
	"repro/client"
	"repro/internal/server"
)

// The remote backend must satisfy the same contracts as the local ones.
var (
	_ hopdb.Querier = (*client.Client)(nil)
	_ hopdb.Pather  = (*client.Client)(nil)
)

// testIndex builds an index over two components: a path 0-1-2-3 and an
// edge 4-5, so both reachable and unreachable pairs exist.
func testIndex(t *testing.T, attachGraph bool) *hopdb.Index {
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
	if !attachGraph {
		// Round-trip through a file to drop the graph.
		file := t.TempDir() + "/g.idx"
		if err := idx.Save(file); err != nil {
			t.Fatal(err)
		}
		loaded, err := hopdb.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		return loaded.(*hopdb.Index)
	}
	return idx
}

func newServerAndClient(t *testing.T, opt client.Options) (*hopdb.Index, *client.Client) {
	t.Helper()
	idx := testIndex(t, true)
	ts := httptest.NewServer(server.New(idx, server.Config{CacheEntries: 32}).Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return idx, c
}

func TestClientMatchesLocalIndex(t *testing.T) {
	idx, c := newServerAndClient(t, client.Options{})
	if c.N() != idx.N() {
		t.Fatalf("N = %d, want %d", c.N(), idx.N())
	}
	var pairs []hopdb.QueryPair
	for s := int32(0); s < idx.N(); s++ {
		for u := int32(0); u < idx.N(); u++ {
			want, wantOK := idx.Distance(s, u)
			got, ok, err := c.Lookup(s, u)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || (ok && got != want) {
				t.Errorf("Lookup(%d,%d) = (%d,%v), want (%d,%v)", s, u, got, ok, want, wantOK)
			}
			got2, ok2 := c.Distance(s, u)
			if got2 != got || ok2 != ok {
				t.Errorf("Distance(%d,%d) = (%d,%v) disagrees with Lookup", s, u, got2, ok2)
			}
			pairs = append(pairs, hopdb.QueryPair{S: s, T: u})
		}
	}
	// Batch (twice through the same reused buffer) vs the local index.
	results := make([]uint32, len(pairs))
	for round := 0; round < 2; round++ {
		out := c.DistanceBatchInto(results, pairs, 4)
		for i, p := range pairs {
			want, _ := idx.Distance(p.S, p.T)
			if out[i] != want {
				t.Fatalf("round %d: batch[%d] (%d,%d) = %d, want %d", round, i, p.S, p.T, out[i], want)
			}
		}
	}
	// Out-of-range ids answer Infinity like every other backend.
	if d, ok := c.Distance(-1, 99); ok || d != hopdb.Infinity {
		t.Errorf("out-of-range = (%d,%v), want (Infinity,false)", d, ok)
	}
}

func TestClientPath(t *testing.T) {
	idx, c := newServerAndClient(t, client.Options{})
	path, err := c.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != len(want) {
		t.Fatalf("Path(0,3) = %v, want %v", path, want)
	}
	for i := range path {
		if path[i] != want[i] {
			t.Fatalf("Path(0,3) = %v, want %v", path, want)
		}
	}
	if _, err := c.Path(0, 5); !errors.Is(err, hopdb.ErrUnreachable) {
		t.Errorf("Path(0,5) error = %v, want ErrUnreachable", err)
	}
}

func TestClientPathNoGraph(t *testing.T) {
	idx := testIndex(t, false)
	ts := httptest.NewServer(server.New(idx, server.Config{}).Handler())
	defer ts.Close()
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Path(0, 3); !errors.Is(err, hopdb.ErrNoGraph) {
		t.Errorf("Path on graph-less server = %v, want ErrNoGraph", err)
	}
}

func TestClientStats(t *testing.T) {
	idx, c := newServerAndClient(t, client.Options{})
	st := c.Stats()
	if st.Backend != hopdb.BackendRemote {
		t.Errorf("Stats().Backend = %q, want remote", st.Backend)
	}
	if st.Vertices != idx.N() || st.Entries != idx.Entries() {
		t.Errorf("Stats() = %+v, want %d vertices / %d entries", st, idx.N(), idx.Entries())
	}
	ss, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Backend != string(hopdb.BackendHeap) {
		t.Errorf("ServerStats().Backend = %q, want heap (the server's own kind)", ss.Backend)
	}
}

func TestOpenWithRemote(t *testing.T) {
	idx := testIndex(t, true)
	ts := httptest.NewServer(server.New(idx, server.Config{}).Handler())
	defer ts.Close()
	q, err := hopdb.Open("", hopdb.WithRemote(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, ok := q.(*client.Client); !ok {
		t.Fatalf("Open(WithRemote) returned %T, want *client.Client", q)
	}
	d, ok := q.Distance(0, 3)
	if !ok || d != 3 {
		t.Errorf("remote Distance(0,3) = (%d,%v), want (3,true)", d, ok)
	}
	// Misuse errors.
	if _, err := hopdb.Open("some.idx", hopdb.WithRemote(ts.URL)); err == nil {
		t.Error("Open(path, WithRemote) accepted a non-empty path")
	}
	if _, err := hopdb.Open("", hopdb.WithRemote(ts.URL), hopdb.WithMmap()); err == nil {
		t.Error("Open(WithRemote, WithMmap) accepted conflicting options")
	}
	if _, err := hopdb.Open("", hopdb.WithRemote("http://127.0.0.1:1/")); err == nil {
		t.Error("Open(WithRemote) succeeded against a dead server")
	}
	if _, err := hopdb.Open("", hopdb.WithRemote("not a url")); err == nil {
		t.Error("Open(WithRemote) accepted a garbage URL")
	}
}

// flakyHandler answers 503 for the first fail requests to a path (the
// handshake /v1/stats is never failed so New succeeds), then delegates.
func flakyFront(inner http.Handler, fail int) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" && n.Add(1) <= int64(fail) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"warming up"}`))
			return
		}
		inner.ServeHTTP(w, r)
	})
}

func TestClientRetriesTransient(t *testing.T) {
	idx := testIndex(t, true)
	inner := server.New(idx, server.Config{}).Handler()
	ts := httptest.NewServer(flakyFront(inner, 2))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.Options{
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryMax:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two 503s then success: the third attempt lands.
	d, ok, err := c.Lookup(0, 3)
	if err != nil || !ok || d != 3 {
		t.Fatalf("Lookup through flaky server = (%d,%v,%v), want (3,true,nil)", d, ok, err)
	}

	// With retry exhausted before the server recovers, the error surfaces.
	ts2 := httptest.NewServer(flakyFront(inner, 100))
	t.Cleanup(ts2.Close)
	c2, err := client.New(ts2.URL, client.Options{
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, err := c2.Lookup(0, 3); err == nil {
		t.Fatal("Lookup through always-503 server succeeded, want error after retries")
	}
}

func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	idx := testIndex(t, true)
	inner := server.New(idx, server.Config{}).Handler()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" {
			hits.Add(1)
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(`{"error":"no"}`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.Options{MaxAttempts: 5, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Lookup(0, 3); err == nil {
		t.Fatal("Lookup = nil error, want the 400 reported")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("client sent %d requests for a permanent error, want 1", got)
	}
}

func TestClientMultiEndpointFailover(t *testing.T) {
	idx := testIndex(t, true)
	good := httptest.NewServer(server.New(idx, server.Config{}).Handler())
	t.Cleanup(good.Close)
	// A dead endpoint first: the handshake and every query must fail
	// over to the good one.
	c, err := client.NewMulti([]string{"http://127.0.0.1:1", good.URL}, client.Options{
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewMulti with one dead endpoint: %v", err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		d, ok, err := c.Lookup(0, 3)
		if err != nil || !ok || d != 3 {
			t.Fatalf("Lookup after failover = (%d,%v,%v), want (3,true,nil)", d, ok, err)
		}
	}
	if n := c.N(); n != 6 {
		t.Fatalf("N() = %d, want 6", n)
	}
}

func TestClientMinSeqHeader(t *testing.T) {
	idx := testIndex(t, true)
	inner := server.New(idx, server.Config{}).Handler()
	var gotMinSeq atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/distance" {
			gotMinSeq.Store(r.Header.Get("X-Hopdb-Min-Seq"))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetMinSeq(7)
	// The read-only test server cannot satisfy seq 7, so the query fails
	// after retries — but the header must have been sent.
	if _, _, err := c.Lookup(0, 3); err == nil {
		t.Fatal("Lookup with unsatisfiable min-seq succeeded, want 503 surfaced")
	}
	if got, _ := gotMinSeq.Load().(string); got != "7" {
		t.Fatalf("server saw min-seq %q, want \"7\"", got)
	}
	c.SetMinSeq(0)
	if d, ok, err := c.Lookup(0, 3); err != nil || !ok || d != 3 {
		t.Fatalf("Lookup after clearing min-seq = (%d,%v,%v), want (3,true,nil)", d, ok, err)
	}
}
