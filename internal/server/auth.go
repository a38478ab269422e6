package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpmw"
	"repro/internal/wire"
)

// The principal scopes. A principal holds any subset; every route
// requires exactly one.
const (
	// ScopeRead covers the query surface: distance, batch, path.
	ScopeRead = "read"
	// ScopeWrite covers dataset mutation: POST admin/edges and the
	// replication log (replica pullers hold it).
	ScopeWrite = "write"
	// ScopeAdmin covers server administration: dataset attach/detach,
	// the access log, and /debug/pprof.
	ScopeAdmin = "admin"
)

// Principal is one entry of the token file: a bearer token bound to a
// name, a scope set, a dataset grant set, and an optional rate limit.
type Principal struct {
	// Token is the bearer token presented as "Authorization: Bearer ...".
	Token string `json:"token"`
	// Name identifies the principal in access logs and error messages —
	// never the token itself.
	Name string `json:"name"`
	// Scopes is the subset of {read, write, admin} this principal holds.
	Scopes []string `json:"scopes"`
	// Datasets lists the dataset names this principal may touch; empty
	// or containing "*" grants every dataset.
	Datasets []string `json:"datasets,omitempty"`
	// RateQPS overrides the server's default per-principal rate limit
	// (tokens per second, one token per answered pair); 0 inherits the
	// server default, negative disables limiting for this principal.
	RateQPS float64 `json:"rate_qps,omitempty"`
	// Burst is the token-bucket depth; 0 inherits the server default.
	Burst float64 `json:"burst,omitempty"`
}

// tokenFile is the JSON shape of the -token-file flag.
type tokenFile struct {
	Principals []Principal `json:"principals"`
}

// LoadTokenFile reads and validates a token file (see ParseTokenFile).
func LoadTokenFile(path string) ([]Principal, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ps, err := ParseTokenFile(raw)
	if err != nil {
		return nil, fmt.Errorf("token file %s: %w", path, err)
	}
	return ps, nil
}

// ParseTokenFile decodes and validates a token file's contents:
//
//	{"principals": [
//	  {"token": "s3cret", "name": "alice", "scopes": ["read"],
//	   "datasets": ["wiki"], "rate_qps": 100, "burst": 200},
//	  {"token": "0p5", "name": "ops", "scopes": ["read","write","admin"]}
//	]}
//
// Unknown fields are refused; the list must pass ValidatePrincipals.
func ParseTokenFile(raw []byte) ([]Principal, error) {
	var tf tokenFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return nil, err
	}
	if err := ValidatePrincipals(tf.Principals); err != nil {
		return nil, err
	}
	return tf.Principals, nil
}

// ValidatePrincipals checks a principal list for the mistakes that would
// otherwise surface as baffling 401/403s at runtime.
func ValidatePrincipals(ps []Principal) error {
	seenTok := map[string]bool{}
	seenName := map[string]bool{}
	for i, p := range ps {
		if p.Token == "" {
			return fmt.Errorf("principal %d (%q): empty token", i, p.Name)
		}
		if seenTok[p.Token] {
			return fmt.Errorf("principal %d (%q): duplicate token", i, p.Name)
		}
		seenTok[p.Token] = true
		if p.Name == "" {
			return fmt.Errorf("principal %d: empty name", i)
		}
		if seenName[p.Name] {
			return fmt.Errorf("principal %q: duplicate name", p.Name)
		}
		seenName[p.Name] = true
		if len(p.Scopes) == 0 {
			return fmt.Errorf("principal %q: no scopes", p.Name)
		}
		for _, sc := range p.Scopes {
			if sc != ScopeRead && sc != ScopeWrite && sc != ScopeAdmin {
				return fmt.Errorf("principal %q: unknown scope %q (want read, write, or admin)", p.Name, sc)
			}
		}
		for _, ds := range p.Datasets {
			if ds == "*" {
				continue
			}
			if err := wire.ValidateDatasetName(ds); err != nil {
				return fmt.Errorf("principal %q: %v", p.Name, err)
			}
		}
	}
	return nil
}

// tokenBucket is a mutex-guarded token bucket with an injectable clock
// (the now argument of take). A full bucket always admits, so one batch
// larger than the burst still makes progress instead of starving.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = rate
	}
	return &tokenBucket{rate: rate, burst: burst}
}

// take withdraws n tokens. On refusal it reports how long until the
// withdrawal (capped at a full bucket) would succeed.
func (b *tokenBucket) take(now time.Time, n float64) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens = math.Min(b.burst, b.tokens+el*b.rate)
	}
	b.last = now
	if b.tokens >= n || b.tokens >= b.burst {
		b.tokens = math.Max(0, b.tokens-n)
		return true, 0
	}
	need := math.Min(n, b.burst)
	return false, time.Duration((need - b.tokens) / b.rate * float64(time.Second))
}

// principalState is one resolved principal: parsed grant sets plus its
// rate bucket.
type principalState struct {
	name     string
	token    []byte
	scopes   map[string]bool
	datasets map[string]bool // nil: every dataset
	bucket   *tokenBucket    // nil: unlimited
}

func (p *principalState) grants(dataset string) bool {
	return p.datasets == nil || p.datasets[dataset]
}

// authStore resolves bearer tokens to principals. Lookup walks the list
// with constant-time compares so token probing leaks nothing through
// timing, matching the single-admin-token behavior it generalizes.
type authStore struct {
	principals []*principalState
	adminToken []byte // legacy -admin-token: every scope, every dataset
}

func newAuthStore(cfg Config) *authStore {
	if len(cfg.Principals) == 0 && cfg.AdminToken == "" {
		return nil
	}
	a := &authStore{}
	if cfg.AdminToken != "" {
		a.adminToken = []byte(cfg.AdminToken)
	}
	for _, p := range cfg.Principals {
		ps := &principalState{
			name:   p.Name,
			token:  []byte(p.Token),
			scopes: map[string]bool{},
		}
		for _, sc := range p.Scopes {
			ps.scopes[sc] = true
		}
		all := len(p.Datasets) == 0
		for _, ds := range p.Datasets {
			if ds == "*" {
				all = true
			}
		}
		if !all {
			ps.datasets = map[string]bool{}
			for _, ds := range p.Datasets {
				ps.datasets[ds] = true
			}
		}
		rate, burst := p.RateQPS, p.Burst
		if rate == 0 {
			rate, burst = cfg.RateQPS, cfg.RateBurst
		}
		ps.bucket = newTokenBucket(rate, burst)
		a.principals = append(a.principals, ps)
	}
	return a
}

// lookup resolves a bearer token; the boolean reports whether it matched
// anything. The legacy admin token resolves to an all-powerful pseudo-
// principal named "admin-token".
func (a *authStore) lookup(token string) (*principalState, bool) {
	if token == "" {
		return nil, false
	}
	tb := []byte(token)
	if len(a.adminToken) > 0 && subtle.ConstantTimeCompare(tb, a.adminToken) == 1 {
		return &principalState{name: "admin-token"}, true
	}
	var found *principalState
	for _, p := range a.principals {
		if subtle.ConstantTimeCompare(tb, p.token) == 1 {
			found = p
		}
	}
	return found, found != nil
}

// allows reports whether p may use scope on dataset; the pseudo-principal
// from the legacy admin token (nil scope set) may do anything.
func (p *principalState) allows(scope, dataset string) (ok bool, reason string) {
	if p.scopes == nil {
		return true, ""
	}
	if !p.scopes[scope] {
		return false, fmt.Sprintf("principal %q lacks the %q scope", p.name, scope)
	}
	if dataset != "" && !p.grants(dataset) {
		return false, fmt.Sprintf("principal %q has no grant for dataset %q", p.name, dataset)
	}
	return true, ""
}

// principalFrom returns the *principalState authorize stored in the
// request's record, or nil.
func principalFrom(ctx context.Context) *principalState {
	p, _ := httpmw.Principal(ctx).(*principalState)
	return p
}

func bearerToken(r *http.Request) string {
	tok, _ := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return tok
}

// authorize gates a route on scope and dataset. On success it stores the
// principal in the request's record (for charge and the access log);
// on failure it writes the error response and reports false.
//
// Three regimes:
//   - No auth configured at all: reads are open; write/admin routes are
//     disabled (403), preserving the pre-token-file behavior.
//   - Only -admin-token: reads stay open; write/admin routes require the
//     admin token (401 on mismatch).
//   - Principals configured: every gated route requires a token that
//     resolves to a principal holding the scope (401 unknown token, 403
//     insufficient scope or missing dataset grant). The admin token, when
//     also set, keeps working with every scope.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request, scope, dataset string) bool {
	if s.auth == nil {
		if scope == ScopeRead {
			return true
		}
		wire.WriteError(w, http.StatusForbidden, "admin API disabled; start the server with an admin token or a token file")
		return false
	}
	tok := bearerToken(r)
	pr, ok := s.auth.lookup(tok)
	if !ok {
		if scope == ScopeRead && len(s.auth.principals) == 0 {
			// Only the legacy admin token is configured: the query
			// surface stays open, as it always was.
			return true
		}
		wire.WriteError(w, http.StatusUnauthorized, "missing or invalid admin bearer token")
		return false
	}
	if allowed, reason := pr.allows(scope, dataset); !allowed {
		wire.WriteError(w, http.StatusForbidden, reason)
		return false
	}
	httpmw.SetPrincipal(r, pr.name, pr)
	return true
}

// charge withdraws n tokens (one per answered pair) from the request's
// rate bucket — the authenticated principal's, or the anonymous bucket
// when serving unauthenticated. On refusal it sheds the request with
// 429 and a Retry-After estimating when the withdrawal would succeed.
func (s *Server) charge(w http.ResponseWriter, r *http.Request, n int) bool {
	b := s.anonBucket
	if pr := principalFrom(r.Context()); pr != nil {
		b = pr.bucket
	}
	if b == nil {
		return true
	}
	ok, wait := b.take(s.now(), float64(n))
	if !ok {
		secs := int(math.Ceil(wait.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		wire.WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("rate limit exceeded; retry in %ds", secs))
	}
	return ok
}

// admit is the batch admission controller: it bounds the total pairs in
// flight across all requests and sheds the overflow with 429 before the
// worker pool melts. The returned release must be called when the
// request finishes; it is nil iff admission was refused.
func (s *Server) admit(w http.ResponseWriter, n int) (release func(), ok bool) {
	limit := int64(s.cfg.MaxInflightPairs)
	if limit <= 0 {
		return func() {}, true
	}
	if cur := s.inflight.Add(int64(n)); cur > limit {
		s.inflight.Add(-int64(n))
		w.Header().Set("Retry-After", "1")
		wire.WriteError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity (%d pairs in flight, limit %d)", cur-int64(n), limit))
		return nil, false
	}
	return func() { s.inflight.Add(-int64(n)) }, true
}
