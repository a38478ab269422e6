package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeConfig shrinks a workload to a few hundred vertices, a few
// thousand queries and a fifth of a second of load.
func smokeConfig(t *testing.T, w workload, trace bool) runConfig {
	return runConfig{Workload: w, Seed: 3, Seconds: 0.2, Trace: trace, Scale: 0.01, Shrink: 6, Dir: t.TempDir()}
}

// Every workload runs end to end at tiny scale with zero failed
// operations and reports every end-to-end metric, none of them zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, w, false), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, def := range endToEnd {
				m, ok := res.Metrics[def.Name]
				if !ok || m.Value <= 0 || m.Unit != def.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", def.Name, m, ok, def.Unit)
				}
			}
			if res.Environment.NumCPU < 1 || res.Environment.GoVersion == "" || res.Seed != 3 {
				t.Errorf("environment block incomplete: %+v", res.Environment)
			}
		})
	}
}

// The traced run of every workload emits every per-layer metric, drives
// the layers it claims to, and leaves a span file in which every child
// lies inside its parent.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			scratch := t.TempDir()
			res, err := runWorkload(smokeConfig(t, w, true), scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
			}
			for _, def := range perLayer {
				if _, ok := res.Metrics[def.Name]; !ok {
					t.Errorf("per-layer metric %s missing", def.Name)
				}
			}
			driven := []string{"core.build_parallel_s", "core.candidates", "label.flat_ns", "hopdb.heap_ns", "extio.read_ios",
				"label.entries_scanned_per_query", "dynamic.epochs", "dynamic.reader_idle_ns", "label.hdx3_file_bytes"}
			if w.Sharded {
				driven = append(driven, "shard.build_s", "cluster.router_self_us", "cluster.leaf_rpcs_per_batch",
					"cluster.rows_bytes_per_batch", "server.leaf_rows_us", "cluster.split_ratio", "cluster.zipf_pairs_per_s")
			} else {
				driven = append(driven, "server.get_self_us", "server.batch_self_us",
					"wire.batch_encode_ns", "client.distance_us", "net.loopback_get_p50_us", "server.uncached_get_us")
			}
			if w.CacheEntries > 0 {
				driven = append(driven, "server.cache_hit_ratio", "server.cache_lookups")
			} else if !w.Sharded {
				// With the cache on and a graph this small every request
				// may be a hit that never reaches the backend.
				driven = append(driven, "hopdb.get_backend_us", "hopdb.batch_backend_us")
			}
			if w.Schedule.Deletes > 0 {
				driven = append(driven, "dynamic.delete_rebuild_ms", "dynamic.full_rebuilds")
			}
			for _, name := range driven {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on %s", name, res.Metrics[name].Value, w.Name)
				}
			}

			path, _ := res.Notes["span_file"].(string)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc spanFile
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 || doc.Workload != w.Name {
				t.Fatalf("span file has %d spans for workload %q", len(doc.Spans), doc.Workload)
			}
			byID := map[int32]span{}
			for _, s := range doc.Spans {
				byID[s.ID] = s
			}
			requests := 0
			for _, s := range doc.Spans {
				if s.EndNS < s.StartNS {
					t.Fatalf("span %+v never closed", s)
				}
				if p, ok := byID[s.Parent]; ok && (s.StartNS < p.StartNS || s.EndNS > p.EndNS) {
					t.Fatalf("span %+v leaves its parent %+v", s, p)
				}
				if s.Parent != 0 && s.Request != 0 {
					requests++
				}
			}
			if requests == 0 {
				t.Error("no request span has a child")
			}
		})
	}
}
