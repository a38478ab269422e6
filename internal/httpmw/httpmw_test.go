package httpmw

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestRingLogWraparound(t *testing.T) {
	l := NewRingLog(3)
	for i := 0; i < 5; i++ {
		l.add(Entry{Path: fmt.Sprintf("/p%d", i)})
	}
	if l.Total() != 5 {
		t.Fatalf("Total() = %d, want 5", l.Total())
	}
	got := l.Entries()
	if len(got) != 3 || got[0].Path != "/p2" || got[2].Path != "/p4" {
		t.Fatalf("Entries() = %+v, want the last three oldest-first", got)
	}
}

// TestRequestIDGeneratedAndEchoed: a request without an id gets a fresh
// one in its context and on the response, and the caller's request
// headers stay as they were.
func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	var seen string
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFromContext(r.Context())
	}), Options{Log: NewRingLog(4)})

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	h.ServeHTTP(rec, req)
	if seen == "" || len(seen) != 16 || strings.Trim(seen, "0123456789abcdef") != "" {
		t.Fatalf("generated id = %q, want 16 hex chars", seen)
	}
	if got := rec.Header().Get(wire.HeaderRequestID); got != seen {
		t.Fatalf("response id %q != assigned id %q", got, seen)
	}
	if len(req.Header) != 0 {
		t.Fatalf("caller's request headers modified: %v", req.Header)
	}
	first := seen
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seen == first {
		t.Fatalf("a second id-less request reused id %q", first)
	}
}

func TestRequestIDPropagatesValidAndReplacesInvalid(t *testing.T) {
	var seen string
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFromContext(r.Context())
	}), Options{Log: NewRingLog(4)})
	cases := []struct {
		in   string
		kept bool
	}{
		{"client-id.42", true},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{"bad id with spaces", false},
		{"emojié", false},
		{"", false},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, "/x", nil)
		if tc.in != "" {
			req.Header.Set(wire.HeaderRequestID, tc.in)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(wire.HeaderRequestID)
		if got != seen {
			t.Errorf("in %q: response id %q != context id %q", tc.in, got, seen)
		}
		if tc.kept && got != tc.in {
			t.Errorf("valid id %q replaced with %q", tc.in, got)
		}
		if !tc.kept && (got == tc.in || got == "") {
			t.Errorf("invalid id %q: response id = %q, want a fresh one", tc.in, got)
		}
		if in := req.Header.Get(wire.HeaderRequestID); in != tc.in {
			t.Errorf("caller's header rewritten from %q to %q", tc.in, in)
		}
	}
}

func TestAccessLogRecordsAnnotations(t *testing.T) {
	l := NewRingLog(8)
	clock := time.Unix(100, 0)
	type auth struct{ scopes string }
	var gotAuth any
	var start time.Time
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start = Start(r)
		SetDataset(r, "wiki")
		SetPrincipal(r, "alice", &auth{"read"})
		gotAuth = Principal(r.Context())
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("hello"))
	}), Options{Log: l, Now: func() time.Time { return clock }})

	req := httptest.NewRequest(http.MethodGet, "/v1/wiki/distance?s=1&t=2", nil)
	req.Header.Set(wire.HeaderRequestID, "trace-1")
	h.ServeHTTP(httptest.NewRecorder(), req)

	entries := l.Entries()
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.ID != "trace-1" || e.Dataset != "wiki" || e.Principal != "alice" {
		t.Fatalf("entry = %+v, want id/dataset/principal recorded", e)
	}
	if e.Status != http.StatusTeapot || e.Bytes != 5 || e.Method != http.MethodGet {
		t.Fatalf("entry = %+v, want status 418, 5 bytes", e)
	}
	if e.Path != "/v1/wiki/distance" || e.Query != "s=1&t=2" {
		t.Fatalf("entry path/query = %q/%q", e.Path, e.Query)
	}
	if !start.Equal(clock) || !e.Time.Equal(clock) {
		t.Fatalf("Start() = %v, entry time %v, want the injected clock's %v", start, e.Time, clock)
	}
	if a, ok := gotAuth.(*auth); !ok || a.scopes != "read" {
		t.Fatalf("Principal() = %#v, want the value SetPrincipal stored", gotAuth)
	}
}

func TestRecoverConvertsPanicTo500(t *testing.T) {
	var logged string
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}), Options{Log: NewRingLog(4), Logf: func(format string, args ...any) {
		logged = fmt.Sprintf(format, args...)
	}})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("body = %q, want the JSON error shape", rec.Body.String())
	}
	if !strings.Contains(logged, "kaboom") || !strings.Contains(logged, "/boom") {
		t.Fatalf("log = %q, want the panic value and path", logged)
	}
	if !strings.Contains(logged, "goroutine") {
		t.Fatalf("log = %q, want a stack trace", logged)
	}
}

func TestRecoverLeavesCommittedResponseAlone(t *testing.T) {
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("after commit")
	}), Options{Log: NewRingLog(4)})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want the already-committed 202", rec.Code)
	}
}

// TestWrapOrder: the access log sees a request after panic recovery (a
// panic logs as the 500 it answered, under the request's id), and an
// http.ErrAbortHandler is logged and then passes through.
func TestWrapOrder(t *testing.T) {
	l := NewRingLog(4)
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			panic(http.ErrAbortHandler)
		}
		panic("kaboom")
	}), Options{Log: l})
	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	req.Header.Set(wire.HeaderRequestID, "trace-9")
	h.ServeHTTP(httptest.NewRecorder(), req)
	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler passed through", v)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	}()
	entries := l.Entries()
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if e := entries[0]; e.Status != http.StatusInternalServerError || e.ID != "trace-9" || e.Bytes == 0 {
		t.Fatalf("panic entry = %+v, want status 500, id trace-9 and the error body counted", e)
	}
	if e := entries[1]; e.Path != "/abort" {
		t.Fatalf("abort entry = %+v", e)
	}
}

func TestMaxBody(t *testing.T) {
	var body any
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body = r.Body
		buf := make([]byte, 64)
		if _, err := r.Body.Read(buf); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				w.WriteHeader(http.StatusRequestEntityTooLarge)
				return
			}
		}
		w.WriteHeader(http.StatusOK)
	}), Options{Log: NewRingLog(4), MaxBody: 4})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader("longer than four")))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 path taken", rec.Code)
	}
	// A bodiless request keeps http.NoBody: there is nothing to cap.
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Body = http.NoBody
	h.ServeHTTP(httptest.NewRecorder(), req)
	if body != http.NoBody {
		t.Fatalf("NoBody request reached the handler with body %T", body)
	}
}

// TestWrapOutlivedByAbandonedHandler: http.TimeoutHandler abandons a
// handler goroutine that still holds the request, so the record must
// tolerate annotations and writes after the wrapper has logged and
// returned (run with -race).
func TestWrapOutlivedByAbandonedHandler(t *testing.T) {
	l := NewRingLog(4)
	release, done := make(chan struct{}), make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		<-release
		SetDataset(r, "late")
		SetPrincipal(r, "late", nil)
		_ = Principal(r.Context())
		w.Write([]byte("too late"))
	})
	h := Wrap(http.TimeoutHandler(slow, time.Millisecond, "timed out"), Options{Log: l})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/slow", nil))
	close(release)
	<-done
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the timeout's 503", rec.Code)
	}
	if e := l.Entries(); len(e) != 1 || e[0].Status != http.StatusServiceUnavailable || e[0].Dataset != "" {
		t.Fatalf("entries = %+v, want one 503 logged before the late annotations", e)
	}
}

// TestRecordIsTheRequestContext: the record stands in for the incoming
// context, so the handler still sees its values, its deadline and its
// cancellation, also through contexts derived from it.
func TestRecordIsTheRequestContext(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	var derivedErr error
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, stop := context.WithTimeout(r.Context(), time.Hour)
		defer stop()
		if ctx.Value(key{}) != "v" || RequestIDFromContext(ctx) == "" {
			t.Errorf("derived context lost a value: %v, id %q", ctx.Value(key{}), RequestIDFromContext(ctx))
		}
		cancel()
		<-ctx.Done()
		derivedErr = ctx.Err()
	}), Options{Log: NewRingLog(4)})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil).WithContext(parent))
	if derivedErr != context.Canceled {
		t.Fatalf("derived context ended with %v, want the incoming cancellation", derivedErr)
	}
}
