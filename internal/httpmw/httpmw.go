// Package httpmw is the one HTTP wrapper shared by the replica server
// (internal/server) and the fan-out router (internal/cluster): every
// request gets one record that carries its id (honored from the
// X-Hopdb-Request-Id header or freshly minted), its access-log entry's
// annotations and its response status and size, plus panic recovery and
// an optional request-body cap. It lives apart from both so the router
// does not import the server (or vice versa) just to log requests the
// same way.
package httpmw

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Entry is one completed request in the access log.
type Entry struct {
	Time       time.Time `json:"time"`
	ID         string    `json:"id,omitempty"`
	Method     string    `json:"method"`
	Path       string    `json:"path"`
	Query      string    `json:"query,omitempty"`
	Status     int       `json:"status"`
	Bytes      int64     `json:"bytes"`
	DurationMS float64   `json:"duration_ms"`
	// Dataset and Principal are annotated by the handler once resolved
	// (SetDataset / SetPrincipal); empty when the route has neither.
	Dataset   string `json:"dataset,omitempty"`
	Principal string `json:"principal,omitempty"`
	Remote    string `json:"remote,omitempty"`
}

// RingLog is a fixed-size ring of the most recent access-log entries,
// safe for concurrent use. The zero value is unusable; use NewRingLog.
type RingLog struct {
	mu    sync.Mutex
	buf   []Entry
	next  int
	total int64
}

// NewRingLog returns a ring holding the last n entries (n < 1 selects a
// default of 1024).
func NewRingLog(n int) *RingLog {
	if n < 1 {
		n = 1024
	}
	return &RingLog{buf: make([]Entry, 0, n)}
}

func (l *RingLog) add(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % cap(l.buf)
}

// Entries returns the retained entries, oldest first.
func (l *RingLog) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Total returns the number of requests logged since start (including
// entries the ring has since evicted).
func (l *RingLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dump is the JSON shape of the access-log admin route.
type Dump struct {
	Total   int64   `json:"total"`
	Entries []Entry `json:"entries"`
}

// ServeDump writes the ring as JSON (the GET /v1/admin/accesslog body).
func (l *RingLog) ServeDump(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Dump{Total: l.Total(), Entries: l.Entries()})
}

// Options configures Wrap.
type Options struct {
	// Log receives one entry per completed request.
	Log *RingLog
	// Logf reports recovered panics with their stack; nil drops them.
	Logf func(format string, args ...any)
	// MaxBody caps request bodies, in bytes: a handler reading past it
	// gets the error http.MaxBytesReader pairs with a 413. 0 leaves
	// bodies uncapped.
	MaxBody int64
	// Now is the clock for entry times and durations; nil is time.Now.
	Now func() time.Time
}

// Wrap returns h behind the per-request wrapper. Each request gets one
// record, which becomes its context with a single WithContext:
//
//   - the request id: a valid incoming X-Hopdb-Request-Id is kept (so
//     one id follows a request across tiers), anything else is replaced
//     with a fresh one; the id is echoed on the response and readable
//     through RequestIDFromContext, and the caller's request headers are
//     left untouched;
//   - the access-log entry, written into opts.Log when the handler
//     returns, with the dataset and principal the handler annotated
//     (SetDataset, SetPrincipal);
//   - panic recovery: a handler panic answers 500 with the API's JSON
//     error shape (when nothing was written yet), is logged with its
//     stack through opts.Logf, and the server lives on;
//     http.ErrAbortHandler passes through untouched, as the stdlib's own
//     abort protocol;
//   - the body cap, when opts.MaxBody is positive and there is a body.
func Wrap(h http.Handler, opts Options) http.Handler {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &wrapper{next: h, opts: opts}
}

type wrapper struct {
	next http.Handler
	opts Options
}

func (m *wrapper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &record{Context: r.Context(), ResponseWriter: w, start: m.opts.Now()}
	if v := r.Header[wire.HeaderRequestID]; len(v) > 0 && validRequestID(v[0]) {
		rec.id[0] = v[0]
	} else {
		rec.id[0] = NewRequestID()
	}
	// The key is canonical and the value slice is the record's own, so
	// echoing the id costs neither a canonicalisation nor an allocation.
	w.Header()[wire.HeaderRequestID] = rec.id[:]
	r = r.WithContext(rec)
	if m.opts.MaxBody > 0 && r.Body != nil && r.Body != http.NoBody {
		r.Body = http.MaxBytesReader(rec, r.Body, m.opts.MaxBody)
	}
	defer m.finish(rec, r)
	m.next.ServeHTTP(rec, r)
}

// finish runs deferred after the handler: it turns a panic into a 500,
// then logs the request.
func (m *wrapper) finish(rec *record, r *http.Request) {
	v := recover()
	if v != nil && v != http.ErrAbortHandler {
		m.opts.Logf("panic serving %s %s (request %s): %v\n%s",
			r.Method, r.URL.Path, rec.id[0], v, debug.Stack())
		if rec.status.Load() == 0 {
			wire.WriteError(rec, http.StatusInternalServerError, "internal server error")
		}
	}
	rec.mu.Lock()
	dataset, principal := rec.dataset, rec.principal
	rec.mu.Unlock()
	status := int(rec.status.Load())
	if status == 0 {
		status = http.StatusOK
	}
	m.opts.Log.add(Entry{
		Time:       rec.start,
		ID:         rec.id[0],
		Method:     r.Method,
		Path:       r.URL.Path,
		Query:      r.URL.RawQuery,
		Status:     status,
		Bytes:      rec.bytes.Load(),
		DurationMS: float64(m.opts.Now().Sub(rec.start)) / float64(time.Millisecond),
		Dataset:    dataset,
		Principal:  principal,
		Remote:     r.RemoteAddr,
	})
	if v == http.ErrAbortHandler {
		panic(v)
	}
}

// recordKey is the context key of a request's record.
type recordKey struct{}

// record is one request's state. It is the request's context (the
// incoming one, extended with the record under recordKey) and the
// ResponseWriter its handler writes through, so attaching it costs no
// allocation beyond its own. It is never pooled, and its annotations
// are mutex-guarded and its counters atomic, because
// http.TimeoutHandler can abandon a handler goroutine that still holds
// the request (and so the record) after the wrapper has logged and
// returned.
type record struct {
	context.Context
	http.ResponseWriter
	// id[0] is the request id; the array doubles as the value slice of
	// the response's X-Hopdb-Request-Id header.
	id     [1]string
	start  time.Time
	status atomic.Int32
	bytes  atomic.Int64

	mu        sync.Mutex
	dataset   string
	principal string
	auth      any
}

// Value answers recordKey with the record itself and defers every other
// key to the incoming context, as context.WithValue would.
func (rec *record) Value(key any) any {
	if key == (recordKey{}) {
		return rec
	}
	return rec.Context.Value(key)
}

func recordOf(ctx context.Context) *record {
	rec, _ := ctx.Value(recordKey{}).(*record)
	return rec
}

func (rec *record) WriteHeader(code int) {
	rec.status.CompareAndSwap(0, int32(code))
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *record) Write(b []byte) (int, error) {
	rec.status.CompareAndSwap(0, http.StatusOK)
	n, err := rec.ResponseWriter.Write(b)
	rec.bytes.Add(int64(n))
	return n, err
}

// Unwrap supports http.ResponseController.
func (rec *record) Unwrap() http.ResponseWriter { return rec.ResponseWriter }

// Flush forwards to the underlying writer when it supports flushing.
func (rec *record) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Start returns the time Wrap took the request, on the Options.Now
// clock, so a handler timing the whole request needs no clock read of
// its own. It is the zero time outside Wrap.
func Start(r *http.Request) time.Time {
	if rec := recordOf(r.Context()); rec != nil {
		return rec.start
	}
	return time.Time{}
}

// RequestIDFromContext returns the id Wrap assigned the request, or "".
func RequestIDFromContext(ctx context.Context) string {
	if rec := recordOf(ctx); rec != nil {
		return rec.id[0]
	}
	return ""
}

// SetDataset annotates the request's access-log entry with the resolved
// dataset name. A no-op outside Wrap.
func SetDataset(r *http.Request, name string) {
	if rec := recordOf(r.Context()); rec != nil {
		rec.mu.Lock()
		rec.dataset = name
		rec.mu.Unlock()
	}
}

// SetPrincipal records the request's authenticated principal: name
// annotates its access-log entry, and auth is the caller's own state
// for it, returned by Principal. A no-op outside Wrap.
func SetPrincipal(r *http.Request, name string, auth any) {
	if rec := recordOf(r.Context()); rec != nil {
		rec.mu.Lock()
		rec.principal, rec.auth = name, auth
		rec.mu.Unlock()
	}
}

// Principal returns the auth value SetPrincipal stored for the request,
// or nil.
func Principal(ctx context.Context) any {
	rec := recordOf(ctx)
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.auth
}

// validRequestID reports whether an incoming id is safe to propagate
// into logs and headers: 1-64 characters of [a-zA-Z0-9._-].
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// NewRequestID returns a fresh random request id: 16 hex characters, in
// one allocation. An id correlates log lines and is no secret, so it
// draws on the runtime's per-thread generator rather than crypto/rand.
func NewRequestID() string {
	const digits = "0123456789abcdef"
	var h [16]byte
	u := rand.Uint64()
	for i := range h {
		h[i] = digits[u>>(60-4*i)&15]
	}
	return string(h[:])
}
