package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		// Request 1: router span with two overlapping leaf RPCs and a
		// third child that starts inside and outlives its parent.
		{ID: 1, Parent: 0, Request: 1, Layer: "cluster", Name: "batch", StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, Request: 1, Layer: "server", Name: "leaf_rows", StartNS: 100, EndNS: 400},
		{ID: 3, Parent: 1, Request: 1, Layer: "server", Name: "leaf_rows", StartNS: 300, EndNS: 600},
		{ID: 4, Parent: 1, Request: 1, Layer: "server", Name: "leaf_batch", StartNS: 900, EndNS: 1200},
		// Request 2: handler -> querier -> kernel, strictly nested.
		{ID: 5, Parent: 0, Request: 2, Layer: "server", Name: "distance", StartNS: 2000, EndNS: 3000},
		{ID: 6, Parent: 5, Request: 2, Layer: "hopdb", Name: "distance", StartNS: 2200, EndNS: 2700},
		{ID: 7, Parent: 6, Request: 2, Layer: "label", Name: "merge", StartNS: 2300, EndNS: 2400},
		// Never closed: ignored.
		{ID: 8, Parent: 0, Request: 3, Layer: "server", Name: "distance", StartNS: 5000, EndNS: 0},
	}
	got := selfTimes(spans)
	// Children cover [100,600] and [900,1000] of the router span: 600 ns.
	if r := got["cluster.batch"]; r.Count != 1 || r.TotalNS != 1000 || r.SelfNS != 400 {
		t.Errorf("cluster.batch = %+v, want count 1 total 1000 self 400", r)
	}
	if r := got["server.leaf_rows"]; r.Count != 2 || r.TotalNS != 600 || r.SelfNS != 600 {
		t.Errorf("server.leaf_rows = %+v, want count 2 total 600 self 600", r)
	}
	if r := got["server.distance"]; r.Count != 1 || r.TotalNS != 1000 || r.SelfNS != 500 {
		t.Errorf("server.distance = %+v, want count 1 total 1000 self 500 (unclosed span ignored)", r)
	}
	if r := got["hopdb.distance"]; r.SelfNS != 400 {
		t.Errorf("hopdb.distance self = %d, want 400", r.SelfNS)
	}
	if r := got["label.merge"]; r.SelfNS != 100 {
		t.Errorf("label.merge self = %d, want 100", r.SelfNS)
	}
}

func TestTracerStackSamplingAndDetachedSpans(t *testing.T) {
	tr := newTracer()
	req := tr.beginRequest(true)
	outer := tr.start("cluster", "batch")
	tr.anchor(req, outer)
	inner := tr.start("hopdb", "batch")
	leaf := tr.startDetached(req, "server", "leaf_rows") // another goroutine's span
	tr.endDetached(leaf)
	tr.end(inner)
	tr.end(outer)

	// An unsampled request records nothing, on either side of the socket.
	if n := tr.beginRequest(false); n != 0 {
		t.Errorf("unsampled request got number %d, want 0", n)
	}
	if id := tr.start("server", "distance"); id != 0 {
		t.Errorf("span of an unsampled request got id %d, want 0", id)
	}
	tr.end(0)
	if id := tr.startDetached(0, "server", "leaf_rows"); id != 0 {
		t.Errorf("detached span without a request got id %d, want 0", id)
	}
	tr.unmute()
	after := tr.start("dynamic", "insert")
	tr.end(after)

	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	if spans[1].Parent != outer || spans[2].Parent != outer || spans[0].Parent != 0 || spans[3].Parent != 0 {
		t.Errorf("parents = %d %d %d %d, want 0 %d %d 0", spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent, outer, outer)
	}
	for _, s := range spans[:3] {
		if s.Request != req {
			t.Errorf("span %d carries request %d, want %d", s.ID, s.Request, req)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d not closed", s.ID)
		}
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, "w", 7); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc spanFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "w" || doc.Seed != 7 || len(doc.Spans) != 4 || doc.Spans[1].Layer != "hopdb" {
		t.Errorf("span file round trip lost data: %+v", doc)
	}
}
