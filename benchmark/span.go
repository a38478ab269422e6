package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Spans of one request share Request; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Request int64  `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory (and written to the span
// file); later spans are counted in dropped and otherwise ignored, so a
// long traced phase cannot exhaust memory.
const maxSpans = 1 << 18

// tracer records spans in memory and writes them out when the run ends.
// The traced load phases use one caller, whose nested calls are linked
// through a span stack; spans opened on other goroutines (leaf servers
// behind the router) name their parent explicitly.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	stack   []int32 // open spans of the single traced caller
	request int64   // current request number of the traced caller
	// muted is set while the traced caller's current request is not
	// sampled; it is read before taking mu so an unsampled request costs
	// its wrappers one atomic load each.
	muted atomic.Bool
	// byRequest maps a request number to the span that leaf-side spans
	// of that request hang under (the router's handler span).
	byRequest map[int64]int32
	dropped   int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byRequest: make(map[int64]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginRequest starts a new request on the traced caller and returns its
// number; spans started until the next beginRequest carry it. With
// sampled false the request's spans are not recorded — the wrappers
// still run, so a 200k req/s phase can be traced one request in sixteen
// without filling memory — and the number is 0.
func (t *tracer) beginRequest(sampled bool) int64 {
	t.muted.Store(!sampled)
	if !sampled {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.request++
	return t.request
}

// unmute ends a sampled phase: spans are recorded again.
func (t *tracer) unmute() { t.muted.Store(false) }

// count returns how many spans have been recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// start opens a span under the traced caller's innermost open span and
// returns its id (0 when the request is not sampled or the span budget
// is exhausted).
func (t *tracer) start(layer, name string) int32 {
	if t.muted.Load() {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent int32
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.add(parent, t.request, layer, name, now)
	if id > 0 {
		t.stack = append(t.stack, id)
	}
	return id
}

// end closes the traced caller's innermost span, which must be id.
func (t *tracer) end(id int32) {
	if id <= 0 {
		return // muted, or the span budget was exhausted
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.spans[id-1].EndNS = now
}

// anchor marks span id as the parent of the leaf-side spans of request.
func (t *tracer) anchor(request int64, id int32) {
	t.mu.Lock()
	t.byRequest[request] = id
	t.mu.Unlock()
}

// startDetached opens a span on a goroutine other than the traced
// caller's, under the anchor of request (0 when none was set).
func (t *tracer) startDetached(request int64, layer, name string) int32 {
	if request == 0 {
		return 0 // not a sampled request of the traced caller
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(t.byRequest[request], request, layer, name, now)
}

// endDetached closes a span opened with startDetached.
func (t *tracer) endDetached(id int32) {
	now := t.now()
	if id <= 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add appends a span; the caller holds mu.
func (t *tracer) add(parent int32, request int64, layer, name string, start int64) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Layer: layer, Name: name, StartNS: start})
	return id
}

// layerTime is the aggregate of every span with one layer and name.
type layerTime struct {
	Count   int64
	TotalNS int64 // summed durations
	SelfNS  int64 // summed durations minus the part children cover
}

// selfTimes aggregates closed spans by "layer.name". A span's self time
// is its duration minus the union of its children's intervals, clipped
// to the span, so overlapping (concurrent) children are not subtracted
// twice and a child that outlives its parent cannot make it negative.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.EndNS >= s.StartNS {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			continue // never closed
		}
		dur := s.EndNS - s.StartNS
		key := s.Layer + "." + s.Name
		agg := out[key]
		agg.Count++
		agg.TotalNS += dur
		agg.SelfNS += dur - covered(children[s.ID], s.StartNS, s.EndNS)
		out[key] = agg
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// spanFile is the JSON document a traced run leaves behind.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int64  `json:"dropped"`
	Spans    []span `json:"spans"`
}

// write stores the recorded spans at path.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	doc := spanFile{Workload: workload, Seed: seed, Dropped: t.dropped, Spans: t.spans}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// since returns a copy of the spans recorded after the first from.
func (t *tracer) since(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[from:]...)
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span { return t.since(0) }
