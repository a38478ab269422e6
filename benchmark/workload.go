package main

import (
	"repro/internal/gen"
	"repro/internal/graph"
)

// graphSeed is the generator seed of every workload graph. The graph is
// part of a workload's definition, not of its seeded inputs: across
// generator seeds 1-6 the directed power-law graph's index ranges from
// 746k to 998k entries and its build time by ±20%, so a seed-derived
// graph would bury every size and build metric under input variance.
// The run seed drives everything the program is asked instead — query
// pairs, traffic order, the update schedule and the oracle sample.
const graphSeed = 1

// phaseShares splits a run's --seconds among its timed phases. Phases
// with a floor (a minimum repeat count that keeps their median
// meaningful) may run longer than their share.
type phaseShares struct {
	Build, Query, Get, Batch, Update float64
}

// workload is one set of inputs and one serving topology the lifecycle
// runs against. Every workload runs every phase and reports every
// metric; the shares decide where its measuring time goes.
type workload struct {
	Name string
	Why  string
	// Graph generates the workload graph; scale < 1 shrinks it for the
	// smoke tests.
	Graph func(scale float64) (*graph.Graph, error)
	// Builds is the floor on timed hopdb.Build repetitions (after one
	// untimed build).
	Builds int
	// Sharded serves through cluster.Router over four leaf shards on
	// loopback sockets instead of one in-process server.
	Sharded bool
	// Zipf draws serve traffic zipf(1.1) over the degree ranking instead
	// of uniformly.
	Zipf bool
	// CacheEntries is the server's distance-cache budget; 0 is the
	// bypass leg a cache change must not move.
	CacheEntries int
	// Schedule sizes the update phase.
	Schedule scheduleSpec
	// ReaderDuringUpdates makes query_ns the latency a reader sees while
	// the writer applies the schedule, instead of the idle query passes.
	ReaderDuringUpdates bool
	Share               phaseShares
	// Primary is the end-to-end metric trace.overhead_pct is taken on.
	Primary string
}

func scaled(n int32, scale float64) int32 {
	if s := int32(float64(n) * scale); s >= 200 {
		return s
	}
	return 200
}

func glp(n int32, density float64) func(float64) (*graph.Graph, error) {
	return func(scale float64) (*graph.Graph, error) {
		return gen.GLP(gen.DefaultGLP(scaled(n, scale), density, graphSeed))
	}
}

// lightSchedule is the update phase of the workloads whose time goes
// elsewhere: inserts only, so update_s stays a steady few hundred
// milliseconds; the delete paths are update-mixed's business.
var lightSchedule = scheduleSpec{Inserts: 200}

// workloads is the catalogue; BENCHMARK.json and README.md list the same
// names (a test keeps the three in step).
var workloads = []workload{
	{
		Name:     "table6-glp",
		Why:      "paper scoreboard on the 30k-vertex GLP acceptance graph: short rows, index 6x L2; internal/core does the build phase, internal/label the query phase",
		Graph:    glp(30000, 4),
		Builds:   3,
		Schedule: lightSchedule,
		Share:    phaseShares{Build: 0.25, Query: 0.30, Get: 0.15, Batch: 0.10, Update: 0.20},
		Primary:  "query_ns",
	},
	{
		Name: "table6-directed",
		Why:  "same lifecycle on a directed power-law graph: separate in/out labels, 11+ iterations, rows 2-3x longer, unreachable pairs; a kernel change that helps one shape and hurts the other shows here",
		Graph: func(scale float64) (*graph.Graph, error) {
			return gen.PowerLaw(gen.PowerLawParams{N: scaled(8000, scale), Density: 6.7, Alpha: 2.3, Directed: true, Seed: graphSeed})
		},
		Builds:   5,
		Schedule: lightSchedule,
		Share:    phaseShares{Build: 0.25, Query: 0.30, Get: 0.15, Batch: 0.10, Update: 0.20},
		Primary:  "query_ns",
	},
	{
		Name:         "serve-zipf",
		Why:          "closed-loop GET and 256-pair batch traffic, zipf over degree, on an L2-resident index with a 16384-entry cache: server, middleware, codec and cache do the work, the merge kernel little",
		Graph:        glp(4000, 10),
		Builds:       5,
		Zipf:         true,
		CacheEntries: 16384,
		Schedule:     lightSchedule,
		Share:        phaseShares{Build: 0.10, Query: 0.10, Get: 0.45, Batch: 0.25, Update: 0.10},
		Primary:      "get_p50_us",
	},
	{
		Name:     "sharded-batch",
		Why:      "uniform 256-pair batches through the router over four leaf shards: mostly split-pair row fetches, so cluster, shard and the rows codec dominate; bypasses the distance cache and the batch scheduler",
		Graph:    glp(10000, 4),
		Builds:   5,
		Sharded:  true,
		Schedule: lightSchedule,
		Share:    phaseShares{Build: 0.10, Query: 0.10, Get: 0.20, Batch: 0.50, Update: 0.10},
		Primary:  "batch_p50_us",
	},
	{
		Name:                "update-mixed",
		Why:                 "600 inserts and 10 deletes applied beside a reader: writes on internal/dynamic, reads through the epoch pointer; a read-path gain that taxes epoch publication shows here and nowhere else",
		Graph:               glp(10000, 4),
		Builds:              5,
		Schedule:            scheduleSpec{Inserts: 600, Deletes: 10},
		ReaderDuringUpdates: true,
		Share:               phaseShares{Build: 0.10, Query: 0, Get: 0.10, Batch: 0.10, Update: 0.70},
		Primary:             "insert_ms",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
