package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	hopdb "repro"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// countingHandler wraps a leaf server and counts every query request
// reaching it (health probes to /v1/stats excluded), and the POST
// /v1/rows among them, so tests can pin which queries touched a leaf.
type countingHandler struct {
	h    http.Handler
	hits atomic.Int64
	rows atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/stats" {
		c.hits.Add(1)
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/rows" {
		c.rows.Add(1)
	}
	c.h.ServeHTTP(w, r)
}

// shardFleet is a running sharded deployment: the map, the loaded hub,
// one counting leaf server per shard (plus optional extra replicas).
type shardFleet struct {
	m        *shard.Map
	hub      *shard.Shard
	counters []*countingHandler
	urls     []string
	servers  []*httptest.Server
}

// buildShardFleet builds leaves shards for the shared test graph and
// serves each leaf over HTTP. extraReplicasOf lists leaf ids to serve a
// second replica of.
func buildShardFleet(t *testing.T, leaves int, extraReplicasOf ...int32) (*shardFleet, *hopdb.Index) {
	t.Helper()
	idx, g := buildIndex(t)
	dir := t.TempDir()
	m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: leaves, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	f := &shardFleet{m: m}
	serve := func(file string) {
		q, err := hopdb.OpenShard(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { q.Close() })
		ch := &countingHandler{h: server.New(q, server.Config{Workers: 2}).Handler()}
		ts := httptest.NewServer(ch)
		t.Cleanup(ts.Close)
		f.counters = append(f.counters, ch)
		f.urls = append(f.urls, ts.URL)
		f.servers = append(f.servers, ts)
	}
	for _, sh := range m.Shards {
		serve(sh.File)
	}
	for _, id := range extraReplicasOf {
		serve(m.Shards[id].File)
	}
	if f.hub, err = shard.Load(filepath.Join(dir, m.HubFile)); err != nil {
		t.Fatal(err)
	}
	return f, idx
}

// newShardedRouter assembles a probed pool + sharded router over the
// fleet.
func newShardedRouter(t *testing.T, f *shardFleet, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	cfg.ShardMap = f.m
	cfg.Hub = f.hub
	pool := NewPool(f.urls, nil, time.Hour)
	pool.Probe()
	rt, err := NewRouter(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// TestNewRouterRejectsHubOfOtherBuild pins that the hub must come from
// the build the shard map describes, direction and weighting included:
// the undirected and directed builds of a 200-vertex graph cut the same
// hub range [0, ceil(sqrt(n))), but an undirected hub aliases In to Out,
// so routing a directed fleet with it would merge Out rows as In rows.
func TestNewRouterRejectsHubOfOtherBuild(t *testing.T) {
	cut := func(directed bool) (*shard.Map, *shard.Shard) {
		g, err := gen.PowerLaw(gen.PowerLawParams{N: 200, Density: 3, Alpha: 2.2, Directed: directed, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 2, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		hub, err := shard.Load(filepath.Join(dir, m.HubFile))
		if err != nil {
			t.Fatal(err)
		}
		return m, hub
	}
	dm, dhub := cut(true)
	um, uhub := cut(false)
	weighted := *dm
	weighted.Weighted = !dm.Weighted
	for _, c := range []struct {
		name string
		m    *shard.Map
		hub  *shard.Shard
		ok   bool
	}{
		{"directed", dm, dhub, true},
		{"undirected", um, uhub, true},
		{"undirected hub, directed map", dm, uhub, false},
		{"directed hub, undirected map", um, dhub, false},
		{"weighting differs", &weighted, dhub, false},
	} {
		_, err := NewRouter(NewPool(nil, nil, time.Hour), RouterConfig{ShardMap: c.m, Hub: c.hub})
		if (err == nil) != c.ok {
			t.Errorf("%s: NewRouter error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestShardedHubLocalNoLeafRPC pins the hub tier's whole point: a pair
// whose both endpoints rank inside the hub is answered from the
// router's own hub copy, with zero requests to any leaf.
func TestShardedHubLocalNoLeafRPC(t *testing.T) {
	f, idx := buildShardFleet(t, 3)
	rt, ts := newShardedRouter(t, f, RouterConfig{})

	// Two vertices whose ranks are inside the hub tier.
	var hubVerts []int32
	for v := int32(0); v < f.m.N && len(hubVerts) < 2; v++ {
		if f.hub.Perm[v] < f.m.HubRanks {
			hubVerts = append(hubVerts, v)
		}
	}
	if len(hubVerts) < 2 {
		t.Fatalf("hub tier of %d ranks has fewer than 2 vertices", f.m.HubRanks)
	}
	s, u := hubVerts[0], hubVerts[1]

	resp, err := http.Get(ts.URL + "/v1/distance?s=" + itoa(s) + "&t=" + itoa(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dr wire.DistanceResult
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	want, _ := idx.Distance(s, u)
	if !dr.Reachable || dr.Distance == nil || *dr.Distance != want {
		t.Fatalf("sharded distance(%d,%d) = %+v, want %d", s, u, dr, want)
	}
	for i, c := range f.counters {
		if n := c.hits.Load(); n != 0 {
			t.Errorf("leaf %d received %d query requests for a hub-covered pair, want 0", i, n)
		}
	}
	if got := rt.hubLocal.Load(); got != 1 {
		t.Errorf("hubLocal = %d, want 1", got)
	}
}

// TestShardedBatchMatchesDirect sweeps every pair (plus out-of-range
// ids) through the sharded router's binary batch path and demands the
// exact answers the single-node index gives.
func TestShardedBatchMatchesDirect(t *testing.T) {
	f, idx := buildShardFleet(t, 4)
	rt, ts := newShardedRouter(t, f, RouterConfig{ChunkSize: 16})

	n := f.m.N
	var pairs []wire.QueryPair
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u += 3 {
			pairs = append(pairs, wire.QueryPair{S: s, T: u})
		}
	}
	pairs = append(pairs, wire.QueryPair{S: -1, T: 0}, wire.QueryPair{S: 0, T: n + 7})
	want := idx.DistanceBatchInto(make([]uint32, len(pairs)), pairs, 4)

	req := wire.AppendBatchRequest(nil, pairs)
	resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	got, err := wire.DecodeBatchResponse(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("got %d results for %d pairs", len(got), len(pairs))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d (%d,%d): sharded %d, direct %d", i, pairs[i].S, pairs[i].T, got[i], want[i])
		}
	}
	if rt.hubLocal.Load() == 0 {
		t.Error("no pair was answered hub-locally in a full sweep")
	}
	if rt.rowFetches.Load() == 0 {
		t.Error("no rows were fetched in a full sweep")
	}
}

// TestShardedBatchOneRowsRPCPerLeaf pins the routing of a batch: every
// pair the hub cannot answer, same-leaf pairs included, is merged on the
// router from rows, so with the default ChunkSize each leaf sees at most
// one request, a POST /v1/rows, and the router fetches each distinct
// leaf-ranked row once.
func TestShardedBatchOneRowsRPCPerLeaf(t *testing.T) {
	f, idx := buildShardFleet(t, 4)
	rt, ts := newShardedRouter(t, f, RouterConfig{})

	n, h := f.m.N, f.m.HubRanks
	var pairs []wire.QueryPair
	for i := int32(0); i < 100; i++ {
		pairs = append(pairs, wire.QueryPair{S: i * 7 % n, T: (i*13 + 5) % n})
	}
	type rowKey struct {
		rank int32
		in   bool
	}
	keys := map[rowKey]bool{}
	sameLeaf := 0
	for _, p := range pairs {
		rs, rtk := f.hub.Perm[p.S], f.hub.Perm[p.T]
		if rs == rtk || (rs < h && rtk < h) {
			continue
		}
		if rs >= h {
			keys[rowKey{rs, false}] = true
		}
		if rtk >= h {
			keys[rowKey{rtk, true}] = true
		}
		if f.m.Owner(rs) >= 0 && f.m.Owner(rs) == f.m.Owner(rtk) {
			sameLeaf++
		}
	}
	if sameLeaf == 0 {
		t.Fatal("the batch holds no same-leaf pair")
	}
	want := idx.DistanceBatchInto(make([]uint32, len(pairs)), pairs, 4)

	resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(wire.AppendBatchRequest(nil, pairs)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	got, err := wire.DecodeBatchResponse(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d (%d,%d): sharded %d, direct %d", i, pairs[i].S, pairs[i].T, got[i], want[i])
		}
	}
	for i, c := range f.counters {
		if hits, rows := c.hits.Load(), c.rows.Load(); hits > 1 || rows != hits {
			t.Errorf("leaf %d received %d query requests, %d of them POST /v1/rows; want at most one, a rows request", i, hits, rows)
		}
	}
	if got := rt.rowFetches.Load(); got != int64(len(keys)) {
		t.Errorf("row_fetches = %d, want %d distinct leaf-ranked rows", got, len(keys))
	}
}

// TestShardedStatsAggregation is the /v1/stats contract for sharded
// fleets: entries and bytes are summed across DISTINCT shards — a
// second replica of a leaf must not double its bytes — the hub counts
// once (router-resident), and per-leaf resident bytes respect the
// sizing bound (1/N of the full index plus the hub tier).
func TestShardedStatsAggregation(t *testing.T) {
	const leaves = 3
	f, idx := buildShardFleet(t, leaves, 0) // leaf 0 runs two replicas
	rt, _ := newShardedRouter(t, f, RouterConfig{})

	st := rt.Stats()
	wantEntries := f.m.TotalEntries()
	if st.Entries != wantEntries {
		t.Errorf("Entries = %d, want %d (sum over distinct shards)", st.Entries, wantEntries)
	}
	if st.SizeBytes != wantEntries*8 {
		t.Errorf("SizeBytes = %d, want %d", st.SizeBytes, wantEntries*8)
	}
	if st.Vertices != f.m.N {
		t.Errorf("Vertices = %d, want %d", st.Vertices, f.m.N)
	}
	if st.Directed != f.m.Directed {
		t.Errorf("Directed = %v, want %v", st.Directed, f.m.Directed)
	}
	if len(st.Shards) != leaves+1 {
		t.Fatalf("got %d shard groups, want %d leaves + hub", len(st.Shards), leaves)
	}
	if !st.Shards[0].Hub || st.Shards[0].Entries != f.m.HubEntries {
		t.Errorf("first group = %+v, want the hub with %d entries", st.Shards[0], f.m.HubEntries)
	}
	var sum int64
	fullBytes := idx.SizeBytes()
	for _, g := range st.Shards {
		sum += g.Entries
		if !g.Hub && g.SizeBytes > fullBytes/leaves+st.Shards[0].SizeBytes {
			t.Errorf("leaf [%d,%d) holds %d bytes, above the 1/N+hub bound %d",
				g.Lo, g.Hi, g.SizeBytes, fullBytes/leaves+st.Shards[0].SizeBytes)
		}
	}
	if sum != st.Entries {
		t.Errorf("shard groups sum to %d entries, stats report %d", sum, st.Entries)
	}
	for _, g := range st.Shards {
		if g.Lo == f.m.Shards[0].Lo && !g.Hub && g.Replicas != 2 {
			t.Errorf("leaf 0 group reports %d replicas, want 2", g.Replicas)
		}
	}
}

// TestPoolIndexTotalsUnsharded is the satellite fix for unsharded
// fleets: /v1/stats label totals must reflect the fleet's index, not
// whichever replica happened to be probed first — and identical
// replicas of one full index count it once.
func TestPoolIndexTotalsUnsharded(t *testing.T) {
	idx, _ := buildIndex(t)
	a := startReplica(t, idx, server.Config{})
	b := startReplica(t, idx, server.Config{})
	pool := NewPool([]string{a.URL, b.URL}, nil, time.Hour)
	pool.Probe()
	entries, sizeBytes, directed := pool.IndexTotals()
	ist := idx.Stats()
	if entries != ist.Entries || sizeBytes != ist.SizeBytes {
		t.Errorf("IndexTotals = (%d, %d), want one index's worth (%d, %d)",
			entries, sizeBytes, ist.Entries, ist.SizeBytes)
	}
	if directed != ist.Directed {
		t.Errorf("IndexTotals directed = %v, want %v", directed, ist.Directed)
	}
	rt, err := NewRouter(pool, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Entries != ist.Entries || st.SizeBytes != ist.SizeBytes {
		t.Errorf("RouterStats totals = (%d, %d), want (%d, %d)", st.Entries, st.SizeBytes, ist.Entries, ist.SizeBytes)
	}
}

// TestShardedFailoverReplicaKill kills one of a leaf's two replicas
// under load; scatter-gather must keep answering through the survivor.
func TestShardedFailoverReplicaKill(t *testing.T) {
	f, idx := buildShardFleet(t, 3, 1) // leaf 1 has a second replica
	_, ts := newShardedRouter(t, f, RouterConfig{})

	n := f.m.N
	var pairs []wire.QueryPair
	for s := int32(0); s < n; s += 2 {
		pairs = append(pairs, wire.QueryPair{S: s, T: (s + 11) % n})
	}
	want := idx.DistanceBatchInto(make([]uint32, len(pairs)), pairs, 4)
	query := func() {
		t.Helper()
		req := wire.AppendBatchRequest(nil, pairs)
		resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinaryBatch, bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		got, err := wire.DecodeBatchResponse(nil, body)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pair %d: got %d, want %d after replica kill", i, got[i], want[i])
			}
		}
	}
	query()
	// The extra replica of leaf 1 is the last-started server; kill it.
	// Its endpoint stays marked healthy (no re-probe), so the router
	// discovers the death on contact and must fail over mid-request.
	f.servers[len(f.servers)-1].Close()
	query()
}

func itoa(v int32) string { return strconv.Itoa(int(v)) }
