package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
)

// The HTTP query front end every serving tier shares: internal/server
// and both internal/cluster router paths parse, bound, decode and
// answer /v1/distance and /v1/batch through the functions below, so a
// router answers every request, malformed ones included, with the
// bytes a replica would. The public client mirrors the retryability
// rule.

// DefaultMaxBatch caps /v1/batch requests, in pairs, when a tier's
// MaxBatch is zero.
const DefaultMaxBatch = 10000

// TransientStatus reports whether an HTTP status indicates a failure
// worth retrying on another replica (or the same one, later): the
// gateway-ish statuses, including the 503 a min-seq-behind replica
// answers — but never a 4xx (the client's fault everywhere) or a clean
// 2xx.
func TransientStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// AllowMethod writes a 405 (with an Allow header listing every accepted
// method) unless r uses one of the given methods.
func AllowMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	allow := strings.Join(methods, ", ")
	w.Header().Set("Allow", allow)
	WriteError(w, http.StatusMethodNotAllowed, r.Method+" not allowed; use "+allow)
	return false
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = []string{"application/json"}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the API's uniform {"error": msg} shape.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// ParsePair reads the s and t query parameters of a distance or path
// request, answering 400 itself when either is missing or not an int32.
// It reads them as r.URL.Query().Get would, without building the map.
func ParsePair(w http.ResponseWriter, r *http.Request) (s, t int32, ok bool) {
	parse := func(name string) (int32, bool) {
		raw := queryValue(r.URL.RawQuery, name)
		if raw == "" {
			WriteError(w, http.StatusBadRequest, "missing required parameter "+name)
			return 0, false
		}
		v, err := strconv.ParseInt(raw, 10, 32)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("parameter %s=%q is not a vertex id", name, raw))
			return 0, false
		}
		return int32(v), true
	}
	if s, ok = parse("s"); ok {
		t, ok = parse("t")
	}
	return s, t, ok
}

// queryValue returns the first value of the query parameter name in
// rawQuery, or "" when it has none, exactly as url.ParseQuery followed
// by Values.Get: segments split on '&', a segment holding a ';' or a
// malformed %-escape (in its key or its value) does not count, and keys
// and values are unescaped ('+' is a space). It allocates only to
// unescape a key or value that needs it.
func queryValue(rawQuery, name string) string {
	for rawQuery != "" {
		var seg string
		seg, rawQuery, _ = strings.Cut(rawQuery, "&")
		if seg == "" || strings.Contains(seg, ";") {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// WriteDistance answers one /v1/distance pair with 200; an unreachable
// pair omits the distance. The body is byte-identical to encoding/json's
// rendering of DistanceResult, trailing newline included.
func WriteDistance(w http.ResponseWriter, s, t int32, d uint32) {
	b := make([]byte, 0, 80)
	b = append(b, `{"s":`...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	if d != Infinity {
		b = append(b, `,"distance":`...)
		b = strconv.AppendUint(b, uint64(d), 10)
		b = append(b, `,"reachable":true}`+"\n"...)
	} else {
		b = append(b, `,"reachable":false}`+"\n"...)
	}
	w.Header()["Content-Type"] = []string{"application/json"}
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// CheckMinSeq enforces a request's X-Hopdb-Min-Seq read-your-writes
// demand against seq, the journal position the answering tier serves
// at (-1 for a backend that keeps no journal, which meets no positive
// demand). A malformed header answers 400, and a tier behind the demand
// answers 503 with Retry-After, so a router or retrying client moves on
// to a caught-up replica. It reports whether the request may proceed.
func CheckMinSeq(w http.ResponseWriter, r *http.Request, seq int64) bool {
	var raw string
	if v := r.Header[HeaderMinSeq]; len(v) > 0 {
		raw = v[0]
	}
	if raw == "" {
		return true
	}
	min, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("%s %q is not a sequence number", HeaderMinSeq, raw))
		return false
	}
	if min <= 0 || seq >= min {
		return true
	}
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("serving at seq %d, behind required min-seq %d", max(seq, 0), min))
	return false
}

// ReadBinaryBody reads a fixed-width binary request body (a binary
// batch, or a /v1/rows key list) into dst's storage, answering 413 or
// 400 itself when it cannot. The bound is exact: a header plus maxBatch
// 8-byte pairs, or the 2*maxBatch 4-byte row keys those pairs need.
func ReadBinaryBody(w http.ResponseWriter, r *http.Request, dst []byte, maxBatch int) ([]byte, bool) {
	return readBody(w, r, dst, int64(maxBatch)*pairBytes+batchHeaderSize, maxBatch)
}

// readBody reads r's whole body into dst[:0], reusing its capacity,
// and answers 413 when it exceeds limit bytes.
func readBody(w http.ResponseWriter, r *http.Request, dst []byte, limit int64, maxBatch int) ([]byte, bool) {
	if n := r.ContentLength; n > 0 && n <= limit && int64(cap(dst)) <= n {
		dst = make([]byte, 0, n+1) // +1: the read that sees EOF needs no growth
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, true
		}
		if err == nil {
			continue
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes (max-batch is %d pairs)", limit, maxBatch))
		} else {
			WriteError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return dst, false
	}
}

// jsonPair decodes one [s,t] element of a JSON batch, rejecting anything
// but exactly two numbers — the stock [2]int32 decoding would silently
// zero-pad [[5]] and drop the tail of [[1,2,9]], turning client typos
// into confidently wrong answers.
type jsonPair [2]int32

func (p *jsonPair) UnmarshalJSON(b []byte) error {
	elems := make([]int32, 0, 2)
	if err := json.Unmarshal(b, &elems); err != nil {
		return err
	}
	if len(elems) != 2 {
		return fmt.Errorf("pair must be [s,t], got %d elements", len(elems))
	}
	p[0], p[1] = elems[0], elems[1]
	return nil
}

// Batch is the reusable scratch of one /v1/batch request: the body, the
// decoded pairs and their distances. Pool it: a warm Batch reads,
// answers and writes a request without allocating in proportion to its
// size.
type Batch struct {
	// Pairs is the decoded request; Dists receives its answers and is
	// sized to len(Pairs) by Read.
	Pairs []QueryPair
	Dists []uint32
	// Body is the raw request body, then the encoded binary response;
	// it doubles as scratch for other binary bodies (ReadBinaryBody).
	Body []byte

	binary  bool
	raw     []jsonPair
	results []DistanceResult
}

// Read reads and decodes r's /v1/batch body in the encoding its
// Content-Type selects (binary for ContentTypeBinaryBatch, else JSON),
// answering 400 or 413 itself when the body is malformed or holds more
// than maxBatch pairs. It reports whether b holds a request to answer.
func (b *Batch) Read(w http.ResponseWriter, r *http.Request, maxBatch int) bool {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	b.binary = strings.TrimSpace(ct) == ContentTypeBinaryBatch
	var ok bool
	if b.binary {
		b.Body, ok = ReadBinaryBody(w, r, b.Body, maxBatch)
	} else {
		// 64 bytes comfortably covers one encoded pair even with
		// pretty-printed whitespace, so an in-budget batch is never
		// clipped but a grossly oversized one fails fast.
		b.Body, ok = readBody(w, r, b.Body, int64(maxBatch)*64+64, maxBatch)
	}
	if !ok {
		return false
	}
	status, err := b.decode(maxBatch)
	if err != nil {
		WriteError(w, status, err.Error())
		return false
	}
	if cap(b.Dists) < len(b.Pairs) {
		b.Dists = make([]uint32, len(b.Pairs))
	}
	b.Dists = b.Dists[:len(b.Pairs)]
	return true
}

// decode parses b.Body into b.Pairs, returning the status to answer
// with on failure.
func (b *Batch) decode(maxBatch int) (int, error) {
	var n int
	if b.binary {
		// The header count is checked before the payload, so a claim
		// beyond the limit is refused as such.
		count, err := header(b.Body, batchReqMagic, "batch request")
		if err != nil {
			return http.StatusBadRequest, err
		}
		n = int(count)
	} else {
		b.raw = b.raw[:0]
		dec := json.NewDecoder(bytes.NewReader(b.Body))
		if err := dec.Decode(&b.raw); err != nil {
			var wrongType *json.UnmarshalTypeError
			if errors.As(err, &wrongType) && wrongType.Type == reflect.TypeOf(b.raw) {
				err = fmt.Errorf("got a JSON %s", wrongType.Value)
			}
			return http.StatusBadRequest, fmt.Errorf("body must be a JSON array of [s,t] pairs: %w", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			// Decode stops after the first JSON value; anything but EOF
			// behind it means the client framed the request wrong, and
			// answering just the first value would silently drop the rest.
			return http.StatusBadRequest, errors.New("trailing data after the batch array")
		}
		n = len(b.raw)
	}
	if n > maxBatch {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d pairs exceeds the limit of %d", n, maxBatch)
	}
	if b.binary {
		var err error
		if b.Pairs, err = DecodeBatchRequest(b.Pairs, b.Body); err != nil {
			return http.StatusBadRequest, err
		}
		return 0, nil
	}
	if cap(b.Pairs) < n {
		b.Pairs = make([]QueryPair, n)
	}
	b.Pairs = b.Pairs[:n]
	for i, p := range b.raw {
		b.Pairs[i] = QueryPair{S: p[0], T: p[1]}
	}
	return 0, nil
}

// Write answers b.Dists with 200 in the encoding the request used.
func (b *Batch) Write(w http.ResponseWriter) {
	if b.binary {
		b.Body = AppendBatchResponse(b.Body[:0], b.Dists)
		w.Header().Set("Content-Type", ContentTypeBinaryBatch)
		w.WriteHeader(http.StatusOK)
		w.Write(b.Body)
		return
	}
	n := len(b.Dists)
	if cap(b.results) < n {
		b.results = make([]DistanceResult, n)
	}
	b.results = b.results[:n]
	if b.results == nil {
		// An empty batch answers {"results":[]}, never {"results":null}.
		b.results = []DistanceResult{}
	}
	for i, d := range b.Dists {
		b.results[i] = DistanceResult{S: b.Pairs[i].S, T: b.Pairs[i].T, Reachable: d != Infinity}
		if d != Infinity {
			b.results[i].Distance = &b.Dists[i]
		}
	}
	WriteJSON(w, http.StatusOK, BatchResult{Results: b.results})
}
