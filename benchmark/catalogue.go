package main

// metricDef names one reported metric. Bound is the share of the
// parent's median an end-to-end metric may worsen by before a change is
// rejected; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees; every untraced run prints
// all of them. BENCHMARK.json carries the same list. Every timing carries
// the widest bound the contract allows: on the shared two-core reference
// VM whole sets of runs differ by up to 15% (30% for the memory-bound
// inserts on the 12 MB index) as neighbours come and go, so a tighter
// gate would reject innocent changes (README, "Run-to-run spread"). The
// two sizes repeat exactly and keep tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"build_s", "s", "lower", 0.25},
	{"index_bytes", "B", "lower", 0.01},
	{"open_ms", "ms", "lower", 0.25},
	{"open_heap_mb", "MB", "lower", 0.03},
	{"query_ns", "ns", "lower", 0.25},
	{"get_rps", "req/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"get_p99_us", "us", "lower", 0.25},
	{"batch_pairs_per_s", "pairs/s", "higher", 0.25},
	{"batch_p50_us", "us", "lower", 0.25},
	{"insert_ms", "ms", "lower", 0.25},
	{"update_s", "s", "lower", 0.25},
}

// perLayer lists the metrics of single layers a traced run prints, each
// under the layer (package) that does the work. They have no bound. A
// metric of a layer the workload does not drive — the cluster and shard
// tiers on a single-node topology, the loopback leg on the sharded one,
// the distance cache where it is disabled — reads 0.
//
// README.md says which end-to-end metric each one should move;
// BENCHMARK.json carries the same list (a test keeps them in step).
var perLayer = []metricDef{
	// Build, by stage (-> build_s, setup_s, peak_rss_mb).
	{Name: "gen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "order.rank_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_serial_s", Unit: "s", Better: "lower"},
	{Name: "core.build_parallel_s", Unit: "s", Better: "lower"},
	{Name: "core.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.iter_max_s", Unit: "s", Better: "lower"},
	{Name: "core.iter_step_s", Unit: "s", Better: "lower"},
	{Name: "core.iter_double_s", Unit: "s", Better: "lower"},
	{Name: "core.raw_candidates", Unit: "count", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.pruned", Unit: "count", Better: "lower"},
	{Name: "core.survivors", Unit: "count", Better: "lower"},
	{Name: "core.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.prune_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.candidates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "core.external_s", Unit: "s", Better: "lower"},
	{Name: "extio.read_ios", Unit: "count", Better: "lower"},
	{Name: "extio.write_ios", Unit: "count", Better: "lower"},
	// Label representations and formats (-> build_s, open_ms,
	// open_heap_mb, index_bytes).
	{Name: "label.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "label.compact_from_ms", Unit: "ms", Better: "lower"},
	{Name: "label.write_ms", Unit: "ms", Better: "lower"},
	{Name: "label.load_flat_ms", Unit: "ms", Better: "lower"},
	{Name: "label.mmap_ms", Unit: "ms", Better: "lower"},
	{Name: "label.load_compact_ms", Unit: "ms", Better: "lower"},
	{Name: "label.flat_bytes", Unit: "B", Better: "lower"},
	{Name: "label.compact_bytes", Unit: "B", Better: "lower"},
	{Name: "label.hdx3_file_bytes", Unit: "B", Better: "lower"},
	// Kernels on one pair pool (-> query_ns); the row and scan counts are
	// work, not time: a kernel change must not move them.
	{Name: "label.nested_ns", Unit: "ns", Better: "lower"},
	{Name: "label.flat_ns", Unit: "ns", Better: "lower"},
	{Name: "label.compact_ns", Unit: "ns", Better: "lower"},
	{Name: "bitparallel.query_ns", Unit: "ns", Better: "lower"},
	{Name: "label.row_len_mean", Unit: "count", Better: "lower"},
	{Name: "label.row_len_p99", Unit: "count", Better: "lower"},
	{Name: "label.row_len_max", Unit: "count", Better: "lower"},
	{Name: "label.entries_scanned_per_query", Unit: "count", Better: "lower"},
	// Backends through hopdb.Querier (-> query_ns, batch_pairs_per_s).
	{Name: "hopdb.heap_ns", Unit: "ns", Better: "lower"},
	{Name: "hopdb.mmap_ns", Unit: "ns", Better: "lower"},
	{Name: "hopdb.disk_us", Unit: "us", Better: "lower"},
	{Name: "diskidx.ios_per_query", Unit: "count", Better: "lower"},
	{Name: "hopdb.facade_self_ns", Unit: "ns", Better: "lower"},
	{Name: "hopdb.batch1_pairs_per_s", Unit: "pairs/s", Better: "higher"},
	{Name: "hopdb.batchN_pairs_per_s", Unit: "pairs/s", Better: "higher"},
	// Serving tier, one traced caller (-> get_*, batch_*).
	{Name: "server.get_self_us", Unit: "us", Better: "lower"},
	{Name: "server.batch_self_us", Unit: "us", Better: "lower"},
	{Name: "hopdb.get_backend_us", Unit: "us", Better: "lower"},
	{Name: "hopdb.batch_backend_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_lookups", Unit: "count", Better: "higher"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.uncached_get_us", Unit: "us", Better: "lower"},
	{Name: "wire.batch_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.json_batch_us", Unit: "us", Better: "lower"},
	{Name: "client.distance_us", Unit: "us", Better: "lower"},
	{Name: "client.batch_us", Unit: "us", Better: "lower"},
	// Loopback-socket leg, ungated (single-node topology).
	{Name: "net.loopback_get_p50_us", Unit: "us", Better: "lower"},
	{Name: "net.loopback_get_rps", Unit: "req/s", Better: "higher"},
	{Name: "net.loopback_batch_pairs_per_s", Unit: "pairs/s", Better: "higher"},
	{Name: "net.transport_self_us", Unit: "us", Better: "lower"},
	{Name: "net.open_p99_us_8k", Unit: "us", Better: "lower"},
	{Name: "net.knee_rps", Unit: "req/s", Better: "higher"},
	{Name: "net.generator_late_p99_us", Unit: "us", Better: "lower"},
	// Sharded topology (-> batch_pairs_per_s, batch_p50_us, setup_s).
	{Name: "shard.build_s", Unit: "s", Better: "lower"},
	{Name: "shard.hub_bytes", Unit: "B", Better: "lower"},
	{Name: "shard.leaf_bytes_max", Unit: "B", Better: "lower"},
	{Name: "shard.open_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.router_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.leaf_rpcs_per_batch", Unit: "count", Better: "lower"},
	{Name: "cluster.row_fetches_per_batch", Unit: "count", Better: "lower"},
	{Name: "cluster.rows_bytes_per_batch", Unit: "B", Better: "lower"},
	{Name: "cluster.hub_local_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.same_leaf_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cluster.split_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "cluster.alloc_kb_per_batch", Unit: "kB", Better: "lower"},
	{Name: "cluster.batch_p90_us", Unit: "us", Better: "lower"},
	{Name: "cluster.batch_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.leaf_rows_us", Unit: "us", Better: "lower"},
	{Name: "server.leaf_batch_us", Unit: "us", Better: "lower"},
	{Name: "shard.rows_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.rows_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "label.merge_share", Unit: "ratio", Better: "higher"},
	{Name: "cluster.zipf_pairs_per_s", Unit: "pairs/s", Better: "higher"},
	{Name: "cluster.zipf_hub_local_ratio", Unit: "ratio", Better: "higher"},
	// Online updates (-> insert_ms, update_s, query_ns).
	{Name: "dynamic.open_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.insert_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.delete_partial_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.delete_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.partial_repairs", Unit: "count", Better: "lower"},
	{Name: "dynamic.full_rebuilds", Unit: "count", Better: "lower"},
	{Name: "dynamic.noops", Unit: "count", Better: "lower"},
	{Name: "dynamic.epochs", Unit: "count", Better: "lower"},
	{Name: "dynamic.reader_idle_ns", Unit: "ns", Better: "lower"},
	{Name: "dynamic.reader_interference", Unit: "x", Better: "lower"},
	{Name: "dynamic.save_ms", Unit: "ms", Better: "lower"},
	// Cost of the wrappers themselves, on the workload's primary metric.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
