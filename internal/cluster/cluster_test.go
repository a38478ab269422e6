package cluster

import (
	"bytes"
	"context"
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
	"repro/internal/server"
	"repro/internal/wire"
)

// buildIndex builds a small two-component graph and its index: a GLP-ish
// core is overkill here, what matters is plenty of distinct answers plus
// unreachable pairs.
func buildIndex(t *testing.T) (*hopdb.Index, *hopdb.Graph) {
	t.Helper()
	b := hopdb.NewGraphBuilder(false, false)
	// A 40-vertex cycle with chords, plus an island edge.
	for i := int32(0); i < 40; i++ {
		b.AddEdge(i, (i+1)%40, 1)
		if i%5 == 0 {
			b.AddEdge(i, (i+13)%40, 1)
		}
	}
	b.AddEdge(40, 41, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, g
}

// startReplica serves q over an httptest server with the given config.
func startReplica(t *testing.T, q hopdb.Querier, cfg server.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(q, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newTestRouter assembles a started pool + router over the URLs.
func newTestRouter(t *testing.T, urls []string, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	pool := NewPool(urls, nil, 50*time.Millisecond)
	rt, err := NewRouter(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	t.Cleanup(pool.Stop)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func TestPoolHealthAndPick(t *testing.T) {
	idx, _ := buildIndex(t)
	alive := startReplica(t, idx, server.Config{})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()

	pool := NewPool([]string{alive.URL, dead.URL, "http://127.0.0.1:1"}, nil, time.Hour)
	pool.Probe()
	if got := pool.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d, want 1", got)
	}
	for i := 0; i < 20; i++ {
		ep := pool.PickDataset(wire.DefaultDataset, nil)
		if ep == nil || ep.url != alive.URL {
			t.Fatalf("PickDataset returned %v, want the healthy replica", ep)
		}
	}
	if ep := pool.PickDataset(wire.DefaultDataset, func(u string) bool { return u == alive.URL }); ep != nil {
		t.Fatalf("PickDataset with everything excluded = %v, want nil", ep)
	}
	if v := pool.Vertices(); v != 42 {
		t.Fatalf("Vertices() = %d, want 42", v)
	}
}

func TestRouterAnswersMatchDirect(t *testing.T) {
	idx, _ := buildIndex(t)
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startReplica(t, idx, server.Config{}).URL)
	}
	// Tiny chunks so a modest batch exercises splitting and reassembly.
	_, ts := newTestRouter(t, urls, RouterConfig{ChunkSize: 7})

	var pairs []hopdb.QueryPair
	for s := int32(0); s < 42; s += 3 {
		for u := int32(1); u < 42; u += 5 {
			pairs = append(pairs, hopdb.QueryPair{S: s, T: u})
		}
	}
	want := idx.DistanceBatch(pairs, 4)

	// Single distance queries.
	for i, p := range pairs[:10] {
		resp, err := http.Get(fmt.Sprintf("%s/v1/distance?s=%d&t=%d", ts.URL, p.S, p.T))
		if err != nil {
			t.Fatal(err)
		}
		var dr wire.DistanceResult
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := uint32(wire.Infinity)
		if dr.Reachable && dr.Distance != nil {
			got = *dr.Distance
		}
		if got != want[i] {
			t.Fatalf("distance(%d,%d) = %d via router, want %d", p.S, p.T, got, want[i])
		}
	}

	// Binary batch through the splitter.
	req := wire.AppendBatchRequest(nil, pairs)
	resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch: %d %v", resp.StatusCode, err)
	}
	got, err := wire.DecodeBatchResponse(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch[%d] = %d via router, want %d", i, got[i], want[i])
		}
	}

	// JSON batch answers the documented shape.
	var arr bytes.Buffer
	arr.WriteByte('[')
	for i, p := range pairs[:9] {
		if i > 0 {
			arr.WriteByte(',')
		}
		fmt.Fprintf(&arr, "[%d,%d]", p.S, p.T)
	}
	arr.WriteByte(']')
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", &arr)
	if err != nil {
		t.Fatal(err)
	}
	var br wire.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Results) != 9 {
		t.Fatalf("JSON batch answered %d results, want 9", len(br.Results))
	}
	for i, r := range br.Results {
		got := uint32(wire.Infinity)
		if r.Reachable && r.Distance != nil {
			got = *r.Distance
		}
		if got != want[i] {
			t.Fatalf("JSON batch[%d] = %d, want %d", i, got, want[i])
		}
	}
}

// TestRouterFailoverUnderKill is the failover acceptance test: three
// replicas serve a batch storm through the router, one replica is killed
// mid-storm (in-flight connections severed), and every query must still
// answer — identically to the single-node truth run — with zero failures.
func TestRouterFailoverUnderKill(t *testing.T) {
	idx, _ := buildIndex(t)
	replicas := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range replicas {
		replicas[i] = startReplica(t, idx, server.Config{})
		urls[i] = replicas[i].URL
	}
	_, ts := newTestRouter(t, urls, RouterConfig{ChunkSize: 16})

	var pairs []hopdb.QueryPair
	for s := int32(0); s < 42; s++ {
		pairs = append(pairs, hopdb.QueryPair{S: s, T: (s * 7) % 42})
	}
	want := idx.DistanceBatch(pairs, 4)
	reqBody := wire.AppendBatchRequest(nil, pairs)

	const (
		workers          = 8
		batchesPerWorker = 40
	)
	var (
		failures atomic.Int64
		wrong    atomic.Int64
		started  sync.WaitGroup
		wg       sync.WaitGroup
	)
	started.Add(workers)
	httpc := &http.Client{Timeout: 30 * time.Second}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for b := 0; b < batchesPerWorker; b++ {
				resp, err := httpc.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(reqBody))
				if first {
					started.Done()
					first = false
				}
				if err != nil {
					failures.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				got, derr := wire.DecodeBatchResponse(nil, body)
				if derr != nil || len(got) != len(want) {
					failures.Add(1)
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						wrong.Add(1)
						break
					}
				}
			}
		}()
	}

	// Kill one replica once the storm is in full flight: sever its live
	// connections, then close it, so the router sees both mid-request
	// failures and fresh connection refusals.
	started.Wait()
	replicas[0].CloseClientConnections()
	replicas[0].Close()
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d failed queries through the router during the kill, want 0", f)
	}
	if wr := wrong.Load(); wr != 0 {
		t.Fatalf("%d batches diverged from the single-node truth run", wr)
	}
}

func TestRouterMinSeqRoutesToCaughtUpReplica(t *testing.T) {
	// Two updatable replicas over the same saved index; only one gets
	// the write, so only it can satisfy min-seq 1.
	_, g := buildIndex(t)
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	open := func() hopdb.Querier {
		q, err := hopdb.Open(path, hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { q.Close() })
		return q
	}
	ahead, behind := open(), open()
	if err := ahead.(hopdb.Updatable).InsertEdge(0, 20, 1); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestRouter(t,
		[]string{startReplica(t, ahead, server.Config{}).URL, startReplica(t, behind, server.Config{}).URL},
		RouterConfig{})

	get := func(minSeq string) (int, http.Header) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/distance?s=0&t=20", nil)
		if err != nil {
			t.Fatal(err)
		}
		if minSeq != "" {
			req.Header.Set(wire.HeaderMinSeq, minSeq)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}
	// The behind replica answers such requests 503; the router must fail
	// over to the caught-up one every time.
	for i := 0; i < 10; i++ {
		status, hdr := get("1")
		if status != http.StatusOK {
			t.Fatalf("min-seq 1 through router = %d, want 200", status)
		}
		if got := hdr.Get(wire.HeaderSeq); got != "1" {
			t.Fatalf("router tagged seq %q, want 1", got)
		}
	}
	// A demand nobody meets propagates as 503.
	if status, _ := get("2"); status != http.StatusServiceUnavailable {
		t.Fatalf("unsatisfiable min-seq through router = %d, want 503", status)
	}
}

func TestRouterHedging(t *testing.T) {
	idx, _ := buildIndex(t)
	fast := startReplica(t, idx, server.Config{})
	slowInner := server.New(idx, server.Config{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/distance") {
			time.Sleep(250 * time.Millisecond)
		}
		slowInner.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()

	rt, ts := newTestRouter(t, []string{fast.URL, slow.URL}, RouterConfig{HedgeDelay: 5 * time.Millisecond})
	const n = 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		resp, err := http.Get(ts.URL + "/v1/distance?s=0&t=5")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hedged distance = %d, want 200", resp.StatusCode)
		}
	}
	elapsed := time.Since(t0)
	st := rt.Stats()
	// About half the requests start on the slow replica; each of those
	// must have hedged onto the fast one. All n finishing in well under
	// n/2 slow-latencies proves the hedges actually won.
	if st.Hedges == 0 {
		t.Fatalf("no hedges launched over %d requests against a slow replica", n)
	}
	if limit := time.Duration(n/2) * 250 * time.Millisecond; elapsed >= limit {
		t.Fatalf("%d hedged requests took %v, want well under %v", n, elapsed, limit)
	}

	// X-Hopdb-No-Hedge suppresses hedging per request.
	before := rt.Stats().Hedges
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/distance?s=0&t=5", nil)
	req.Header.Set(wire.HeaderNoHedge, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if after := rt.Stats().Hedges; after != before {
		t.Fatalf("no-hedge request still hedged (%d -> %d)", before, after)
	}
}

// TestPullLoopConvergence wires the real replication path end to end:
// a primary and two replicas as HTTP servers, writes applied through the
// router's admin proxy, replicas converging via cluster.Pull, and
// queries demanding read-your-writes through the router.
func TestPullLoopConvergence(t *testing.T) {
	_, g := buildIndex(t)
	idx, _, err := hopdb.Build(g, hopdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	open := func() hopdb.Querier {
		q, err := hopdb.Open(path, hopdb.WithGraph(g), hopdb.WithUpdates(hopdb.UpdateOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { q.Close() })
		return q
	}
	const token = "cluster-test"
	primaryQ := open()
	primary := startReplica(t, primaryQ, server.Config{AdminToken: token})
	var urls = []string{primary.URL}
	var replicaQs []hopdb.Querier
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		rq := open()
		replicaQs = append(replicaQs, rq)
		urls = append(urls, startReplica(t, rq, server.Config{AdminToken: token, Replica: true}).URL)
		go func() {
			if err := Pull(ctx, rq.(hopdb.Replicator), PullConfig{
				Primary:  primary.URL,
				Token:    token,
				Interval: 10 * time.Millisecond,
			}); err != nil {
				t.Errorf("pull loop: %v", err)
			}
		}()
	}
	_, ts := newTestRouter(t, urls, RouterConfig{Primary: primary.URL})

	// Write through the router's admin proxy.
	ops := `[{"op":"insert","u":0,"v":20},{"op":"insert","u":5,"v":41},{"op":"delete","u":0,"v":1}]`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/admin/edges", strings.NewReader(ops))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin through router = %d %s", resp.StatusCode, body)
	}
	var ur wire.UpdateResult
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Seq != 3 {
		t.Fatalf("primary at seq %d after 3 ops, want 3", ur.Seq)
	}

	// Replicas converge.
	deadline := time.Now().Add(5 * time.Second)
	for _, rq := range replicaQs {
		for rq.(hopdb.Replicator).Seq() < ur.Seq {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at seq %d, want %d", rq.(hopdb.Replicator).Seq(), ur.Seq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Every replica now answers the post-update distances, and the
	// router satisfies read-your-writes at the primary's seq.
	wantD, _ := primaryQ.Distance(5, 41)
	for i, rq := range replicaQs {
		if d, _ := rq.Distance(5, 41); d != wantD {
			t.Fatalf("replica %d Distance(5,41) = %d, want %d", i, d, wantD)
		}
	}
	rreq, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/distance?s=5&t=41", ts.URL), nil)
	rreq.Header.Set(wire.HeaderMinSeq, fmt.Sprint(ur.Seq))
	rresp, err := http.DefaultClient.Do(rreq)
	if err != nil {
		t.Fatal(err)
	}
	var dr wire.DistanceResult
	if err := json.NewDecoder(rresp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || dr.Distance == nil || *dr.Distance != wantD {
		t.Fatalf("read-your-writes through router: %d %+v, want 200 with distance %d",
			rresp.StatusCode, dr, wantD)
	}
}

func TestRouterStatsHealthzMetrics(t *testing.T) {
	idx, _ := buildIndex(t)
	r1 := startReplica(t, idx, server.Config{})
	_, ts := newTestRouter(t, []string{r1.URL, "http://127.0.0.1:1"}, RouterConfig{})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with one healthy replica = %d, want 200", resp.StatusCode)
	}

	var st RouterStats
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Backend != "router" || st.Vertices != 42 || len(st.Replicas) != 2 {
		t.Fatalf("router stats = %+v, want router backend, 42 vertices, 2 replicas", st)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"hopdb_router_up 1", "hopdb_router_replicas 2", "hopdb_router_replicas_healthy 1", "hopdb_router_replica_up"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("router metrics missing %q", want)
		}
	}

	// No primary configured: admin is 501.
	resp, err = http.Post(ts.URL+"/v1/admin/edges", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("admin without primary = %d, want 501", resp.StatusCode)
	}
}

// TestRouterAllReplicasDown pins the degraded-mode contract: 503 from
// healthz and queries, not hangs or 500s.
func TestRouterAllReplicasDown(t *testing.T) {
	_, ts := newTestRouter(t, []string{"http://127.0.0.1:1"}, RouterConfig{})
	resp, err := http.Get(ts.URL + "/v1/distance?s=0&t=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("distance with no replicas = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no replicas = %d, want 503", resp.StatusCode)
	}
}
