package main

import (
	"bytes"
	"io"
	"net/http"
)

// inprocTransport is an http.RoundTripper that dispatches a request
// straight into a handler on the caller's goroutine. Everything the
// server does per request still runs — routing, the middleware chain,
// auth, cache, codec, backend, encode — and only the kernel's TCP path
// and net/http's connection loop are skipped. Loopback sockets swing
// ±20% run to run on a small VM (see README), so the gated serve metrics
// are measured through this transport and the socket leg is reported as
// ungated per-layer net.* metrics.
type inprocTransport struct {
	h http.Handler
}

// inprocResponse is the http.ResponseWriter a dispatched handler writes
// to; it doubles as the response body handed back to the caller.
type inprocResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
	rd     bytes.Reader
}

func (w *inprocResponse) Header() http.Header { return w.header }

func (w *inprocResponse) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *inprocResponse) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// Read and Close make the response its own Body.
func (w *inprocResponse) Read(p []byte) (int, error) { return w.rd.Read(p) }
func (w *inprocResponse) Close() error               { return nil }

// Bytes exposes the whole response body without copying, for callers
// that know they are talking to an inprocTransport.
func (w *inprocResponse) Bytes() []byte { return w.body.Bytes() }

// RoundTrip implements http.RoundTripper.
func (t *inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// A server-side request differs from the client-side one in a few
	// fields; work on a shallow copy so the caller's request is left
	// untouched, as the RoundTripper contract demands.
	r := *req
	r.RequestURI = req.URL.RequestURI()
	if r.Host == "" {
		r.Host = req.URL.Host
	}
	r.RemoteAddr = "inproc"
	if r.Body == nil {
		r.Body = http.NoBody
	}
	w := &inprocResponse{header: make(http.Header, 4)}
	t.h.ServeHTTP(w, &r)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.rd.Reset(w.body.Bytes())
	return &http.Response{
		Status:        http.StatusText(w.status),
		StatusCode:    w.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          w,
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}, nil
}

// responseBytes returns resp's whole body, without a copy when the
// response came from an inprocTransport, and closes it.
func responseBytes(resp *http.Response) ([]byte, error) {
	if w, ok := resp.Body.(*inprocResponse); ok {
		return w.Bytes(), nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return b, err
}
