package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
)

// testMaxBatch is the MaxBatch the bodies in testdata/batches.txt are
// written against.
const testMaxBatch = 4

// batchRow is one line of testdata/batches.txt.
type batchRow struct {
	name   string
	binary bool
	status int
	body   []byte
}

func loadBatchRows(t testing.TB) []batchRow {
	f, err := os.Open("testdata/batches.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []batchRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, "\t", 4)
		if len(fields) != 4 {
			t.Fatalf("malformed row %q", line)
		}
		status, err := strconv.Atoi(fields[2])
		if err != nil {
			t.Fatalf("row %s: %v", fields[0], err)
		}
		body, err := strconv.Unquote(fields[3])
		if err != nil {
			t.Fatalf("row %s: %v", fields[0], err)
		}
		rows = append(rows, batchRow{fields[0], fields[1] == "binary", status, []byte(body)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// readBatch runs Batch.Read on body, returning the recorder holding any
// error answer.
func readBatch(b *Batch, body []byte, binary bool) (*httptest.ResponseRecorder, bool) {
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	if binary {
		r.Header.Set("Content-Type", ContentTypeBinaryBatch+"; charset=ignored")
	}
	w := httptest.NewRecorder()
	return w, b.Read(w, r, testMaxBatch)
}

func TestBatchReadStatuses(t *testing.T) {
	var b Batch // one Batch across every row: stale scratch must never leak
	for _, row := range loadBatchRows(t) {
		w, ok := readBatch(&b, row.body, row.binary)
		if ok {
			if row.status != http.StatusOK {
				t.Errorf("%s: accepted %d pairs, want status %d", row.name, len(b.Pairs), row.status)
			}
			if len(b.Dists) != len(b.Pairs) {
				t.Errorf("%s: %d dists for %d pairs", row.name, len(b.Dists), len(b.Pairs))
			}
			continue
		}
		if w.Code != row.status {
			t.Errorf("%s: status %d (%s), want %d", row.name, w.Code, w.Body, row.status)
		}
		if strings.Contains(w.Body.String(), "jsonPair") {
			t.Errorf("%s: error names a Go type: %s", row.name, w.Body)
		}
	}
}

func TestBatchWrite(t *testing.T) {
	var b Batch
	if _, ok := readBatch(&b, []byte(`[[1,2],[3,4]]`), false); !ok {
		t.Fatal("valid batch refused")
	}
	b.Dists[0], b.Dists[1] = 5, Infinity
	w := httptest.NewRecorder()
	b.Write(w)
	want := `{"results":[{"s":1,"t":2,"distance":5,"reachable":true},{"s":3,"t":4,"reachable":false}]}` + "\n"
	if w.Body.String() != want || w.Header().Get("Content-Type") != "application/json" {
		t.Errorf("JSON answer %q (%s), want %q", w.Body, w.Header().Get("Content-Type"), want)
	}
	if _, ok := readBatch(&b, []byte(`[]`), false); !ok {
		t.Fatal("empty batch refused")
	}
	w = httptest.NewRecorder()
	b.Write(w)
	if got := w.Body.String(); got != `{"results":[]}`+"\n" {
		t.Errorf("empty JSON answer %q", got)
	}
	if _, ok := readBatch(&b, AppendBatchRequest(nil, []QueryPair{{1, 2}}), true); !ok {
		t.Fatal("binary batch refused")
	}
	b.Dists[0] = 7
	w = httptest.NewRecorder()
	b.Write(w)
	if got := w.Body.Bytes(); !bytes.Equal(got, AppendBatchResponse(nil, []uint32{7})) ||
		w.Header().Get("Content-Type") != ContentTypeBinaryBatch {
		t.Errorf("binary answer %x (%s)", got, w.Header().Get("Content-Type"))
	}
}

func TestCheckMinSeq(t *testing.T) {
	cases := []struct {
		header string
		seq    int64
		status int // 0: the request proceeds
	}{
		{"", -1, 0},
		{"0", -1, 0},
		{"-4", -1, 0},
		{"3", 3, 0},
		{"3", 2, http.StatusServiceUnavailable},
		{"3", -1, http.StatusServiceUnavailable},
		{"x", 7, http.StatusBadRequest},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/v1/distance?s=0&t=1", nil)
		if c.header != "" {
			r.Header.Set(HeaderMinSeq, c.header)
		}
		w := httptest.NewRecorder()
		ok := CheckMinSeq(w, r, c.seq)
		if ok != (c.status == 0) || (!ok && w.Code != c.status) {
			t.Errorf("min-seq %q at seq %d: ok=%v status %d, want %d", c.header, c.seq, ok, w.Code, c.status)
		}
		if c.status == http.StatusServiceUnavailable && w.Header().Get("Retry-After") != "1" {
			t.Errorf("min-seq %q at seq %d: no Retry-After", c.header, c.seq)
		}
	}
}

// FuzzReadBatch checks the shared batch reader on arbitrary bodies in
// both encodings: it never panics, never accepts more than MaxBatch
// pairs, and an accepted batch re-encoded in its own encoding reads
// back as the same pairs.
func FuzzReadBatch(f *testing.F) {
	for _, row := range loadBatchRows(f) {
		f.Add(row.body, row.binary)
	}
	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		var b Batch
		if _, ok := readBatch(&b, body, binary); !ok {
			return
		}
		if len(b.Pairs) > testMaxBatch {
			t.Fatalf("accepted %d pairs, limit %d", len(b.Pairs), testMaxBatch)
		}
		pairs := append([]QueryPair(nil), b.Pairs...)
		var again []byte
		if binary {
			again = AppendBatchRequest(nil, pairs)
		} else {
			raw := make([][2]int32, len(pairs))
			for i, p := range pairs {
				raw[i] = [2]int32{p.S, p.T}
			}
			var err error
			if again, err = json.Marshal(raw); err != nil {
				t.Fatal(err)
			}
		}
		if w, ok := readBatch(&b, again, binary); !ok {
			t.Fatalf("re-encoded batch %q refused: %s", again, w.Body)
		}
		if len(b.Pairs) != len(pairs) {
			t.Fatalf("re-read %d pairs, want %d", len(b.Pairs), len(pairs))
		}
		for i := range pairs {
			if b.Pairs[i] != pairs[i] {
				t.Fatalf("pair %d re-read as %v, want %v", i, b.Pairs[i], pairs[i])
			}
		}
	})
}

// parsePairRef is the url.Values-based pair parser ParsePair replaced,
// kept as the reference its answers must match.
func parsePairRef(w http.ResponseWriter, r *http.Request) (s, t int32, ok bool) {
	q := r.URL.Query()
	parse := func(name string) (int32, bool) {
		raw := q.Get(name)
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

// FuzzParsePair checks ParsePair against parsePairRef on arbitrary raw
// queries: the same pair and verdict, the same status and the same
// error body.
func FuzzParsePair(f *testing.F) {
	for _, q := range []string{
		"", "s=1", "t=1", "s=abc&t=1", "s=1&t=1e3", "s=99999999999&t=1", // the server's bad requests
		"s=0&t=1", "s=-1&t=0", "s=1&t=2147483648", "s=%2B5&t=3", "s=+5&t=3",
		"s=1&s=2&t=3", "s=&s=2&t=3", "s=1;t=3", "s=1&t=3;x", "t=%zz&s=1&t=4",
		"s=1&t=%zz", "%73=4&t=5", "s%3D1=2&t=3", "s=&t=", "s&t", "&&s=1&&t=2&",
		"s=12345678901234567890&t=1", "s=1&t=-12345678901234567890", "s=1%&t=2",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := httptest.NewRequest(http.MethodGet, "/v1/distance", nil)
		r.URL.RawQuery = rawQuery
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		gs, gt, gok := ParsePair(got, r)
		ws, wt, wok := parsePairRef(want, r)
		if gs != ws || gt != wt || gok != wok {
			t.Fatalf("%q: ParsePair = (%d, %d, %v), reference (%d, %d, %v)", rawQuery, gs, gt, gok, ws, wt, wok)
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%q: ParsePair answered %d %q, reference %d %q",
				rawQuery, got.Code, got.Body, want.Code, want.Body)
		}
	})
}

// TestWriteDistanceMatchesJSON: WriteDistance's hand-built body is
// byte-identical to encoding/json's rendering of DistanceResult.
func TestWriteDistanceMatchesJSON(t *testing.T) {
	for _, c := range []struct {
		s, t int32
		d    uint32
	}{
		{0, 0, 0}, {1, 9, 3}, {-1, 2147483647, Infinity - 1}, {-2147483648, 5, Infinity}, {7, 7, Infinity},
	} {
		w := httptest.NewRecorder()
		WriteDistance(w, c.s, c.t, c.d)
		res := DistanceResult{S: c.s, T: c.t, Reachable: c.d != Infinity}
		if res.Reachable {
			res.Distance = &c.d
		}
		want := httptest.NewRecorder()
		WriteJSON(want, http.StatusOK, res)
		if w.Code != http.StatusOK || w.Body.String() != want.Body.String() ||
			w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("WriteDistance(%d, %d, %d) = %d %q (%s), want %q",
				c.s, c.t, c.d, w.Code, w.Body, w.Header().Get("Content-Type"), want.Body)
		}
	}
}

// TestParsePairAndWriteDistanceAllocs: a well-formed pair parses, and
// its answer is written, with no allocation beyond the answer's bytes
// and its Content-Type value.
func TestParsePairAndWriteDistanceAllocs(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/v1/distance?s=12&t=345", nil)
	w := httptest.NewRecorder()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := ParsePair(w, r); !ok {
			t.Fatal("pair refused")
		}
	}); allocs != 0 {
		t.Errorf("ParsePair: %v allocations, want 0", allocs)
	}
	dw := &countingWriter{h: http.Header{}}
	if allocs := testing.AllocsPerRun(100, func() { WriteDistance(dw, 12, 345, 7) }); allocs > 2 {
		t.Errorf("WriteDistance: %v allocations, want at most 2", allocs)
	}
}

// countingWriter is a ResponseWriter that discards the body.
type countingWriter struct {
	h http.Header
	n int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(int)             {}
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
