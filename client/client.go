// Package client is the remote query backend: a hopdb.Querier that
// forwards distance queries to one or more hopdb-serve (or hopdb-router)
// instances over the versioned /v1 HTTP API, making a served index a
// drop-in replacement for a local one. Batches travel in the compact
// binary encoding (8 bytes per pair, zero reflection on either side).
//
// Resilience: transient failures — connection errors, 502/503/504 —
// retry with capped exponential backoff and jitter, rotating across the
// configured endpoints, so one broken replica degrades latency instead
// of surfacing as a query error. Permanent failures (4xx, malformed
// responses) are reported immediately.
//
// The blessed way to construct one is hopdb.Open with WithRemote (one
// endpoint) or WithRemotes (a replica fleet):
//
//	q, err := hopdb.Open("", hopdb.WithRemote("http://host:8080"))
//	q, err := hopdb.Open("", hopdb.WithRemotes("http://a:8080", "http://b:8080"))
//
// which returns a *Client. Use New/NewMulti directly when the extra
// error-reporting methods (Lookup, Batch, ServerStats) are wanted
// without a type assertion.
//
// Read-your-writes: after a write at the primary (the seq field of the
// update response), SetMinSeq makes every subsequent query demand that
// sequence via the X-Hopdb-Min-Seq header; a replica still behind it
// answers 503, which the retry loop treats as transient — so the query
// lands on a caught-up replica or fails only after the backoff budget.
//
// A Client is safe for concurrent use.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpmw"
	"repro/internal/wire"
)

// QueryPair is one (source, target) distance request; identical to
// hopdb.QueryPair.
type QueryPair = wire.QueryPair

// Infinity is the distance reported for unreachable pairs; identical to
// hopdb.Infinity.
const Infinity = wire.Infinity

// Retry defaults; see Options.
const (
	DefaultMaxAttempts = 3
	DefaultRetryBase   = 25 * time.Millisecond
	DefaultRetryMax    = 1 * time.Second
)

// Options tunes a Client.
type Options struct {
	// HTTPClient overrides the http.Client used for requests. The
	// default has a 30 second timeout and pools connections per host.
	HTTPClient *http.Client
	// MaxAttempts bounds how many times one logical request is tried
	// across transient failures (connection errors, 502/503/504),
	// rotating endpoints between attempts. 0 selects
	// DefaultMaxAttempts; 1 disables retry.
	MaxAttempts int
	// RetryBase is the backoff before the second attempt; it doubles
	// per attempt, capped at RetryMax, with jitter in [1/2, 1) of the
	// computed delay. Zeros select DefaultRetryBase/DefaultRetryMax.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Dataset selects a named dataset on a multi-tenant server: requests
	// go to /v1/{dataset}/* instead of the flat /v1/* routes. Empty
	// queries the default dataset over the flat routes (compatible with
	// pre-multi-tenant servers).
	Dataset string
	// Token is the bearer token sent as "Authorization: Bearer ..." on
	// every request (for servers running with a token file or admin
	// token). Empty sends no Authorization header.
	Token string
}

// Client answers distance queries by calling hopdb-serve instances.
type Client struct {
	endpoints []string
	cur       atomic.Int32 // index of the endpoint new requests prefer
	httpc     *http.Client
	prefix    string // "/v1" or "/v1/{dataset}"
	token     string
	attempts  int
	retryBase time.Duration
	retryMax  time.Duration
	minSeq    atomic.Int64

	// sleep and rnd are the retry loop's clock and jitter source,
	// swappable so tests pin backoff behavior without real sleeping.
	sleep func(time.Duration)
	rnd   func(n int64) int64 // uniform in [0, n)

	// handshake is the /v1/stats snapshot taken by New: it pins the
	// vertex count and directedness the Querier contract reports even
	// when the servers are briefly unreachable later.
	handshake wire.StatsResult

	// bufPool recycles binary batch request bodies so steady-state
	// batching does not allocate per request.
	bufPool sync.Pool
}

// New connects to a single hopdb-serve instance at baseURL (e.g.
// "http://127.0.0.1:8080") and verifies it by fetching /v1/stats. The
// returned Client implements hopdb.Querier and hopdb.Pather.
func New(baseURL string, opt Options) (*Client, error) {
	return NewMulti([]string{baseURL}, opt)
}

// NewMulti connects to a fleet of equivalent servers (replicas of the
// same index, or routers in front of one). Requests prefer one endpoint
// at a time and fail over to the next on transient errors; the handshake
// succeeds if any endpoint answers.
func NewMulti(urls []string, opt Options) (*Client, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("client: no endpoints given")
	}
	endpoints := make([]string, len(urls))
	for i, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("client: invalid server URL %q", raw)
		}
		endpoints[i] = strings.TrimRight(raw, "/")
	}
	httpc := opt.HTTPClient
	if httpc == nil {
		httpc = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
			},
		}
	}
	attempts := opt.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	base, max := opt.RetryBase, opt.RetryMax
	if base <= 0 {
		base = DefaultRetryBase
	}
	if max <= 0 {
		max = DefaultRetryMax
	}
	prefix := "/v1"
	if opt.Dataset != "" {
		if err := wire.ValidateDatasetName(opt.Dataset); err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		prefix = "/v1/" + opt.Dataset
	}
	c := &Client{
		endpoints: endpoints,
		httpc:     httpc,
		prefix:    prefix,
		token:     opt.Token,
		attempts:  attempts,
		retryBase: base,
		retryMax:  max,
		sleep:     time.Sleep,
		rnd:       rand.Int63n,
	}
	c.bufPool.New = func() any { return new([]byte) }
	st, err := c.ServerStats()
	if err != nil {
		return nil, fmt.Errorf("client: handshake failed: %w", err)
	}
	c.handshake = st
	return c, nil
}

// SetMinSeq demands read-your-writes freshness: every subsequent query
// carries X-Hopdb-Min-Seq, so replicas still behind seq answer 503 and
// the retry loop moves on to a caught-up one. Use the seq field of the
// admin update response (or Seq of a local Replicator). Zero clears the
// demand. Monotonic use is the caller's business: SetMinSeq overwrites.
func (c *Client) SetMinSeq(seq int64) { c.minSeq.Store(seq) }

// MinSeq returns the current read-your-writes demand (zero when none).
func (c *Client) MinSeq() int64 { return c.minSeq.Load() }

// backoff computes the sleep before attempt a (a >= 1): exponential from
// retryBase, capped at retryMax, with jitter drawn uniformly from the
// upper half of the window so synchronized clients spread out.
func (c *Client) backoff(a int) time.Duration {
	d := c.retryBase << (a - 1)
	if d > c.retryMax || d <= 0 {
		d = c.retryMax
	}
	half := int64(d) / 2
	return time.Duration(half + c.rnd(half+1))
}

// advance rotates the preferred endpoint away from the one that just
// failed (CAS so concurrent failures rotate once, not once each).
func (c *Client) advance(from int32) {
	c.cur.CompareAndSwap(from, (from+1)%int32(len(c.endpoints)))
}

// do performs one logical request with retry and endpoint failover:
// method + path (with query) against the preferred endpoint, resending
// body each attempt. Transient failures rotate endpoints and back off;
// the caller owns the returned response body. contentType is set when
// body != nil.
func (c *Client) do(method, path, contentType string, body []byte) (*http.Response, error) {
	// One id per logical request, reused across retries, so every attempt
	// of the same query correlates in every tier's access log.
	reqID := httpmw.NewRequestID()
	var lastErr error
	for a := 0; a < c.attempts; a++ {
		if a > 0 {
			c.sleep(c.backoff(a))
		}
		cur := c.cur.Load()
		base := c.endpoints[int(cur)%len(c.endpoints)]
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return nil, err
		}
		req.Header.Set(wire.HeaderRequestID, reqID)
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if min := c.minSeq.Load(); min > 0 {
			req.Header.Set(wire.HeaderMinSeq, strconv.FormatInt(min, 10))
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			lastErr = err
			c.advance(cur)
			continue
		}
		if wire.TransientStatus(resp.StatusCode) {
			lastErr = httpError(resp)
			drain(resp)
			c.advance(cur)
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("client: %d attempts failed: %w", c.attempts, lastErr)
}

// Lookup answers one pair with full error reporting: the distance,
// whether t is reachable from s, and any transport or server error.
func (c *Client) Lookup(s, t int32) (uint32, bool, error) {
	var res wire.DistanceResult
	if err := c.getJSON(fmt.Sprintf("%s/distance?s=%d&t=%d", c.prefix, s, t), &res); err != nil {
		return Infinity, false, err
	}
	if !res.Reachable || res.Distance == nil {
		return Infinity, false, nil
	}
	return *res.Distance, true, nil
}

// Distance implements hopdb.Querier. Transport errors are reported as
// unreachable (Infinity, false); use Lookup to distinguish them.
func (c *Client) Distance(s, t int32) (uint32, bool) {
	d, ok, _ := c.Lookup(s, t)
	return d, ok
}

// Batch answers many pairs in one round trip; results[i] answers
// pairs[i], with Infinity for unreachable pairs.
func (c *Client) Batch(pairs []QueryPair) ([]uint32, error) {
	return c.BatchInto(make([]uint32, len(pairs)), pairs)
}

// BatchInto is Batch writing into a caller-provided results slice
// (len(results) must be >= len(pairs)), recycling buffers across calls.
func (c *Client) BatchInto(results []uint32, pairs []QueryPair) ([]uint32, error) {
	results = results[:len(pairs)]
	if len(pairs) == 0 {
		return results, nil
	}
	bufp := c.bufPool.Get().(*[]byte)
	defer c.bufPool.Put(bufp)
	*bufp = wire.AppendBatchRequest((*bufp)[:0], pairs)
	resp, err := c.do(http.MethodPost, c.prefix+"/batch", wire.ContentTypeBinaryBatch, *bufp)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out, err := wire.DecodeBatchResponse(results, body)
	if err != nil {
		return nil, err
	}
	if len(out) != len(pairs) {
		return nil, fmt.Errorf("client: batch answered %d results for %d pairs", len(out), len(pairs))
	}
	return out, nil
}

// DistanceBatchInto implements hopdb.Querier. The whole batch travels in
// one request — the server fans it out across its own worker pool — so
// workers is ignored. A failed request answers Infinity for every pair;
// use BatchInto or LookupBatchInto to observe the error instead.
func (c *Client) DistanceBatchInto(results []uint32, pairs []QueryPair, workers int) []uint32 {
	out, err := c.BatchInto(results, pairs)
	if err != nil {
		out = results[:len(pairs)]
		for i := range out {
			out[i] = Infinity
		}
	}
	return out
}

// LookupBatchInto implements hopdb.LookupBatcher: BatchInto with the
// (ignored) workers parameter of the batch contract, reporting transport
// and server errors instead of swallowing them.
func (c *Client) LookupBatchInto(results []uint32, pairs []QueryPair, workers int) ([]uint32, error) {
	return c.BatchInto(results, pairs)
}

// Path asks the server to reconstruct one shortest path. It returns
// hopdb.ErrNoGraph when the server has no graph attached and
// hopdb.ErrUnreachable when no path exists, so callers handle local and
// remote backends with the same errors.Is checks.
func (c *Client) Path(s, t int32) ([]int32, error) {
	resp, err := c.do(http.MethodGet, fmt.Sprintf("%s/path?s=%d&t=%d", c.prefix, s, t), "", nil)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var pr wire.PathResult
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return nil, err
		}
		return pr.Path, nil
	case http.StatusNotImplemented:
		return nil, wire.ErrNoGraph
	case http.StatusNotFound:
		return nil, wire.ErrUnreachable
	default:
		return nil, httpError(resp)
	}
}

// ServerStats fetches the preferred server's live /v1/stats snapshot:
// serving backend kind, uptime, query counters, and cache effectiveness.
func (c *Client) ServerStats() (wire.StatsResult, error) {
	var st wire.StatsResult
	err := c.getJSON(c.prefix+"/stats", &st)
	return st, err
}

// N implements hopdb.Querier with the vertex count pinned at handshake.
func (c *Client) N() int32 { return c.handshake.Vertices }

// Stats implements hopdb.Querier from the handshake snapshot — a cheap
// accessor, never a network round trip (the described fields are fixed
// for the lifetime of the server's index). Use ServerStats for live
// serving counters.
func (c *Client) Stats() wire.QuerierStats {
	st := c.handshake
	return wire.QuerierStats{
		Backend:     wire.BackendRemote,
		Kernel:      wire.Kernel(st.Kernel),
		Directed:    st.Directed,
		Vertices:    st.Vertices,
		Entries:     st.Entries,
		SizeBytes:   st.SizeBytes,
		BitParallel: st.BitParallel,
	}
}

// Close releases pooled connections. The Client must not be used
// afterwards.
func (c *Client) Close() error {
	c.httpc.CloseIdleConnections()
	return nil
}

// getJSON fetches path and decodes a JSON 200 response into v.
func (c *Client) getJSON(path string, v any) error {
	resp, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// httpError turns a non-200 response into an error carrying the server's
// {"error": ...} message when present.
func httpError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("client: server returned %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("client: server returned %s", resp.Status)
}

// drain consumes and closes the response body so the connection is
// reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
