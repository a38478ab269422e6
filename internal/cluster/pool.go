// Package cluster is the replicated serving tier: a health-checked pool
// of hopdb-serve replicas, a stateless router that fans queries out over
// it (power-of-two-choices balancing, hedged requests, batch splitting
// over the compact binary codec), and the pull loop that replays a
// primary's mutation journal so every replica converges to byte-identical
// label epochs. cmd/hopdb-router and the replica mode of cmd/hopdb-serve
// are thin shells around this package.
package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// DefaultHealthInterval is the pool's probe cadence when Config leaves
// it zero.
const DefaultHealthInterval = 500 * time.Millisecond

// ReplicaState is one replica's health snapshot, as reported by the
// router's /v1/stats.
type ReplicaState struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Seq and Epoch are the replica's replication position at the last
	// probe (zero for read-only backends).
	Seq   int64 `json:"seq"`
	Epoch int64 `json:"epoch"`
	// Inflight is the number of router requests on this replica right
	// now — the load signal power-of-two-choices compares.
	Inflight int64 `json:"inflight"`
	// Datasets lists the datasets the replica advertised at the last
	// probe (a replica predating multi-tenancy advertises none and is
	// treated as serving only "default").
	Datasets []string `json:"datasets,omitempty"`
	// Shard is the rank range the replica advertised (shard backends
	// only).
	Shard *wire.ShardInfo `json:"shard,omitempty"`
	// LastError is the most recent probe failure, cleared on recovery.
	LastError string `json:"last_error,omitempty"`
}

// endpoint is one replica in the pool.
type endpoint struct {
	url       string
	healthy   atomic.Bool
	inflight  atomic.Int64
	seq       atomic.Int64
	epoch     atomic.Int64
	vertices  atomic.Int64
	entries   atomic.Int64
	sizeBytes atomic.Int64
	directed  atomic.Bool
	// shard is the advertised owned rank range from the last probe; nil
	// for backends holding the whole index.
	shard atomic.Pointer[wire.ShardInfo]
	// datasets is the advertised dataset set from the last probe; nil
	// (never probed, or a pre-multi-tenant replica) means {"default"}.
	datasets atomic.Pointer[map[string]bool]

	mu      sync.Mutex
	lastErr string
}

// serves reports whether the replica advertised dataset at its last
// probe.
func (e *endpoint) serves(dataset string) bool {
	set := e.datasets.Load()
	if set == nil {
		return dataset == wire.DefaultDataset
	}
	return (*set)[dataset]
}

func (e *endpoint) setErr(msg string) {
	e.mu.Lock()
	e.lastErr = msg
	e.mu.Unlock()
}

func (e *endpoint) state() ReplicaState {
	e.mu.Lock()
	lastErr := e.lastErr
	e.mu.Unlock()
	var dss []string
	if set := e.datasets.Load(); set != nil {
		for ds := range *set {
			dss = append(dss, ds)
		}
		sort.Strings(dss)
	}
	return ReplicaState{
		URL:       e.url,
		Healthy:   e.healthy.Load(),
		Seq:       e.seq.Load(),
		Epoch:     e.epoch.Load(),
		Inflight:  e.inflight.Load(),
		Datasets:  dss,
		Shard:     e.shard.Load(),
		LastError: lastErr,
	}
}

// Pool is a health-checked set of equivalent replicas. Start launches
// the background prober; Pick hands out healthy replicas by
// power-of-two-choices on in-flight load.
type Pool struct {
	eps      []*endpoint
	httpc    *http.Client
	interval time.Duration
	stop     chan struct{}
	done     sync.WaitGroup
	stopOnce sync.Once
}

// NewPool builds a pool over urls (no trailing slashes added or
// stripped; pass base URLs). httpc defaults to a client with a short
// per-probe timeout; interval <= 0 selects DefaultHealthInterval. The
// pool starts with every replica unknown — run Probe (or Start) before
// routing.
func NewPool(urls []string, httpc *http.Client, interval time.Duration) *Pool {
	if httpc == nil {
		httpc = &http.Client{Timeout: 2 * time.Second}
	}
	if interval <= 0 {
		interval = DefaultHealthInterval
	}
	p := &Pool{
		httpc:    httpc,
		interval: interval,
		stop:     make(chan struct{}),
	}
	for _, u := range urls {
		p.eps = append(p.eps, &endpoint{url: u})
	}
	return p
}

// Probe checks every replica once, synchronously (concurrently across
// replicas): /v1/stats answering 200 marks it healthy and refreshes its
// replication position.
func (p *Pool) Probe() {
	var wg sync.WaitGroup
	for _, ep := range p.eps {
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			p.probe(ep)
		}(ep)
	}
	wg.Wait()
}

func (p *Pool) probe(ep *endpoint) {
	resp, err := p.httpc.Get(ep.url + "/v1/stats")
	if err != nil {
		ep.healthy.Store(false)
		ep.setErr(err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ep.healthy.Store(false)
		ep.setErr(fmt.Sprintf("stats probe returned %s", resp.Status))
		return
	}
	var st wire.StatsResult
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		ep.healthy.Store(false)
		ep.setErr("stats probe: " + err.Error())
		return
	}
	if st.Updates != nil {
		ep.seq.Store(st.Updates.Seq)
		ep.epoch.Store(st.Updates.Epoch)
	}
	ep.vertices.Store(int64(st.Vertices))
	ep.entries.Store(st.Entries)
	ep.sizeBytes.Store(st.SizeBytes)
	ep.directed.Store(st.Directed)
	ep.shard.Store(st.Shard)
	set := map[string]bool{wire.DefaultDataset: true}
	if len(st.Datasets) > 0 {
		set = make(map[string]bool, len(st.Datasets))
		for _, ds := range st.Datasets {
			set[ds] = true
		}
	}
	ep.datasets.Store(&set)
	ep.setErr("")
	ep.healthy.Store(true)
}

// Start probes once synchronously (so the router is immediately usable)
// and then keeps probing in the background until Stop.
func (p *Pool) Start() {
	p.Probe()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.Probe()
			}
		}
	}()
}

// Stop halts the background prober (idempotent).
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.done.Wait()
}

// PickDataset selects a healthy replica advertising dataset and not
// rejected by exclude (nil accepts all): with two or more candidates it
// samples two distinct ones uniformly and returns the less loaded
// (power of two choices), which bounds load imbalance without global
// coordination. Returns nil when no candidate remains.
func (p *Pool) PickDataset(dataset string, exclude func(url string) bool) *endpoint {
	return p.pick(func(ep *endpoint) bool { return ep.serves(dataset) }, exclude)
}

// PickShardOwner selects a healthy replica advertising exactly the
// shard range si (power of two choices among its replicas), or nil
// when none is up — the shard-routing analogue of PickDataset.
func (p *Pool) PickShardOwner(si wire.ShardInfo, exclude func(url string) bool) *endpoint {
	return p.pick(func(ep *endpoint) bool {
		got := ep.shard.Load()
		return got != nil && *got == si
	}, exclude)
}

// pick is the shared candidate filter + power-of-two-choices sampler
// behind PickDataset and PickShardOwner.
func (p *Pool) pick(match func(*endpoint) bool, exclude func(url string) bool) *endpoint {
	var cands []*endpoint
	for _, ep := range p.eps {
		if !ep.healthy.Load() || !match(ep) {
			continue
		}
		if exclude != nil && exclude(ep.url) {
			continue
		}
		cands = append(cands, ep)
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	i := rand.Intn(len(cands))
	j := rand.Intn(len(cands) - 1)
	if j >= i {
		j++
	}
	if cands[j].inflight.Load() < cands[i].inflight.Load() {
		return cands[j]
	}
	return cands[i]
}

// States snapshots every replica for the router's /v1/stats.
func (p *Pool) States() []ReplicaState {
	out := make([]ReplicaState, len(p.eps))
	for i, ep := range p.eps {
		out[i] = ep.state()
	}
	return out
}

// Healthy counts replicas currently marked healthy.
func (p *Pool) Healthy() int {
	n := 0
	for _, ep := range p.eps {
		if ep.healthy.Load() {
			n++
		}
	}
	return n
}

// Size returns the configured replica count.
func (p *Pool) Size() int { return len(p.eps) }

// Datasets returns the union of the datasets advertised by healthy
// replicas, sorted — what the router can route to right now.
func (p *Pool) Datasets() []string {
	union := map[string]bool{}
	for _, ep := range p.eps {
		if !ep.healthy.Load() {
			continue
		}
		if set := ep.datasets.Load(); set != nil {
			for ds := range *set {
				union[ds] = true
			}
		} else {
			union[wire.DefaultDataset] = true
		}
	}
	out := make([]string, 0, len(union))
	for ds := range union {
		out = append(out, ds)
	}
	sort.Strings(out)
	return out
}

// Vertices returns the indexed vertex count reported by healthy
// replicas (zero when none has answered a probe yet), so the router's
// /v1/stats can serve workload discovery like a replica does. Shard
// backends all advertise the global count; the max guards against a
// straggler that answered before its labels finished loading.
func (p *Pool) Vertices() int32 {
	var v int64
	for _, ep := range p.eps {
		if ep.healthy.Load() {
			if got := ep.vertices.Load(); got > v {
				v = got
			}
		}
	}
	return int32(v)
}

// ShardTotal aggregates one distinct index slice's resident footprint:
// replicas of the same slice are counted once (they hold the same
// bytes), so the sum over ShardTotals is the fleet's label total, not
// the replication-inflated one.
type ShardTotal struct {
	// Lo, Hi delimit the slice's rank range; a full (unsharded) index
	// reports [0, vertices).
	Lo  int32 `json:"lo"`
	Hi  int32 `json:"hi"`
	Hub bool  `json:"hub,omitempty"`
	// Full marks an unsharded whole-index backend group.
	Full      bool  `json:"full,omitempty"`
	Entries   int64 `json:"entries"`
	SizeBytes int64 `json:"size_bytes"`
	// Replicas counts healthy replicas holding this slice.
	Replicas int `json:"replicas"`
}

// ShardTotals groups healthy replicas by advertised shard identity and
// reports each distinct slice's label footprint once. Unsharded
// replicas form a single whole-index group. Ordered hub first, then by
// ascending rank range, whole-index group last.
func (p *Pool) ShardTotals() []ShardTotal {
	type key struct {
		si   wire.ShardInfo
		full bool
	}
	groups := map[key]*ShardTotal{}
	var order []key
	for _, ep := range p.eps {
		if !ep.healthy.Load() {
			continue
		}
		var k key
		if si := ep.shard.Load(); si != nil {
			k = key{si: *si}
		} else {
			k = key{full: true}
		}
		g, ok := groups[k]
		if !ok {
			g = &ShardTotal{
				Lo:        k.si.Lo,
				Hi:        k.si.Hi,
				Hub:       k.si.Hub,
				Full:      k.full,
				Entries:   ep.entries.Load(),
				SizeBytes: ep.sizeBytes.Load(),
			}
			if k.full {
				g.Hi = int32(ep.vertices.Load())
			}
			groups[k] = g
			order = append(order, k)
		}
		g.Replicas++
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.full != b.full {
			return b.full // whole-index group last
		}
		if a.si.Hub != b.si.Hub {
			return a.si.Hub // hub first
		}
		if a.si.Lo != b.si.Lo {
			return a.si.Lo < b.si.Lo
		}
		return a.si.Hi < b.si.Hi
	})
	out := make([]ShardTotal, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

// IndexTotals sums label entries and bytes across every distinct index
// slice held by healthy replicas — each shard counted once however
// many replicas hold it — plus whether any backend is directed. This
// is the fleet capacity view: an unsharded fleet reports one index's
// worth, a sharded fleet the sum of its shards.
func (p *Pool) IndexTotals() (entries, sizeBytes int64, directed bool) {
	for _, g := range p.ShardTotals() {
		entries += g.Entries
		sizeBytes += g.SizeBytes
	}
	for _, ep := range p.eps {
		if ep.healthy.Load() && ep.directed.Load() {
			directed = true
		}
	}
	return entries, sizeBytes, directed
}
