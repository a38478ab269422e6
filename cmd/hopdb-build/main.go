// Command hopdb-build constructs a Hop-Doubling label index from an
// edge-list file and writes it to -o as a v2 index image: the one file
// that hopdb-query and hopdb-serve load onto the heap, memory-map (-mmap)
// or serve from disk (-disk). -compact writes the smaller v3 image
// instead, which only loads onto the heap.
//
// Usage:
//
//	hopdb-build -in graph.txt -o graph.idx
//	hopdb-build -in graph.txt -j 8 -o graph.idx       # 8-way parallel build
//	hopdb-build -in graph.txt -compact -o graph.idx   # delta-coded v3 image
//	hopdb-build -in web.txt -directed -method hybrid -external -o web.idx
//	hopdb-build -in big.txt -checkpoint ck/ -o big.idx          # killable
//	hopdb-build -in big.txt -checkpoint ck/ -resume -o big.idx  # continue
//	hopdb-build -in big.txt -shards 4 -shard-dir shards/  # rank shards + hub
//
// -shards partitions the index by contiguous rank ranges into N leaf
// shard files plus a replicated hub shard (the top-rank tier), written
// to -shard-dir together with shard.json. It drives the external
// builder (implied -external), streaming labels straight from the
// sorted record files into the shard files, so the full index is never
// resident in memory. Serve each leaf with hopdb-serve -shard and
// front them with hopdb-router -shard-map.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	hopdb "repro"
)

func main() {
	var (
		in         = flag.String("in", "", "input edge list (required)")
		out        = flag.String("o", "", "output index file (v2; v3 with -compact)")
		directed   = flag.Bool("directed", false, "treat edges as directed")
		weighted   = flag.Bool("weighted", false, "read third column as weight")
		method     = flag.String("method", "hybrid", "construction method: hybrid | doubling | stepping")
		sw         = flag.Int("switch", 10, "hybrid switch iteration")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "parallel build workers (in-memory builder; <= 1 builds serially)")
		checkpoint = flag.String("checkpoint", "", "checkpoint directory: persist build state after every iteration")
		resume     = flag.Bool("resume", false, "resume from the checkpoint in -checkpoint instead of starting fresh")
		external   = flag.Bool("external", false, "use the disk-based I/O-efficient builder")
		memory     = flag.Int("memory", 1<<20, "external memory budget in records")
		block      = flag.Int("block", 341, "external block size in records")
		tmp        = flag.String("tmp", "", "external builder temp dir")
		noPrune    = flag.Bool("no-pruning", false, "disable label pruning (ablation)")
		stats      = flag.Bool("stats", false, "print per-iteration statistics")
		compact    = flag.Bool("compact", false, "write -o in the compact (v3, delta-coded) format; smaller but not mmap-able")
		shards     = flag.Int("shards", 0, "partition the index into this many leaf rank shards plus a hub shard (implies -external; writes to -shard-dir)")
		hubRanks   = flag.Int("hub", 0, "hub tier size in ranks (0 selects ceil(sqrt(n)))")
		shardDir   = flag.String("shard-dir", "", "output directory for -shards: leaf/hub shard files and shard.json")
	)
	flag.Parse()
	if *in == "" || (*out == "" && *shards == 0) {
		fmt.Fprintln(os.Stderr, "hopdb-build: -in and one of -o/-shards are required")
		flag.Usage()
		os.Exit(2)
	}
	if *compact && *out == "" {
		fmt.Fprintln(os.Stderr, "hopdb-build: -compact requires -o")
		flag.Usage()
		os.Exit(2)
	}
	if *shards > 0 {
		if *shardDir == "" {
			fail(errors.New("-shards requires -shard-dir"))
		}
		if *out != "" || *compact {
			fail(errors.New("-shards writes shard files to -shard-dir; drop -o/-compact"))
		}
		// Shard construction streams from the external builder's record
		// files; -shards without -external just turns it on.
		*external = true
	}
	if *external {
		// The external builder is serial and uncheckpointed by design;
		// an explicit -j (the default is fine) or any checkpoint flag is
		// a contradiction, not a preference to ignore.
		jSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "j" {
				jSet = true
			}
		})
		if jSet {
			fail(fmt.Errorf("-external is in-memory-only for parallelism; drop -j or the -external flag"))
		}
		if *checkpoint != "" || *resume {
			fail(fmt.Errorf("-checkpoint/-resume apply to the in-memory builder only; drop them or the -external flag"))
		}
		*jobs = 1
	}
	if *resume && *checkpoint == "" {
		fail(fmt.Errorf("-resume requires -checkpoint"))
	}
	g, err := hopdb.LoadEdgeList(*in, *directed, *weighted)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %v\n", g)

	opt := hopdb.Options{
		SwitchIteration: *sw,
		DisablePruning:  *noPrune,
		Parallelism:     *jobs,
		CheckpointDir:   *checkpoint,
		Resume:          *resume,
		External:        *external,
		MemoryBudget:    *memory,
		BlockSize:       *block,
		TempDir:         *tmp,
		CollectStats:    *stats,
	}
	switch *method {
	case "hybrid":
		opt.Method = hopdb.Hybrid
	case "doubling":
		opt.Method = hopdb.Doubling
	case "stepping":
		opt.Method = hopdb.Stepping
	default:
		fail(fmt.Errorf("unknown method %q", *method))
	}
	if *shards > 0 {
		m, st, err := hopdb.BuildShards(g, opt, hopdb.ShardConfig{
			Shards:   *shards,
			HubRanks: int32(*hubRanks),
			Dir:      *shardDir,
		})
		if err != nil {
			fail(err)
		}
		total := m.TotalEntries()
		fmt.Fprintf(os.Stderr, "built: method=%v iterations=%d entries=%d size=%.2fMB time=%v\n",
			st.Method, st.Iterations, total, float64(total*8)/(1<<20), st.Duration)
		fmt.Fprintf(os.Stderr, "external I/O: %d block reads, %d block writes\n", st.ReadIOs, st.WriteIOs)
		fmt.Fprintf(os.Stderr, "hub: ranks [0,%d) entries=%d size=%.2fMB (%s, replicated on the router)\n",
			m.HubRanks, m.HubEntries, float64(m.HubEntries*8)/(1<<20), m.HubFile)
		for _, sh := range m.Shards {
			fmt.Fprintf(os.Stderr, "shard %d: ranks [%d,%d) entries=%d size=%.2fMB (%s)\n",
				sh.ID, sh.Lo, sh.Hi, sh.Entries, float64(sh.Entries*8)/(1<<20), sh.File)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(*shardDir, "shard.json"))
		return
	}
	idx, st, err := hopdb.Build(g, opt)
	if errors.Is(err, hopdb.ErrNoCheckpoint) {
		// Nothing checkpointed yet (e.g. killed before the first
		// iteration finished): fall back to a fresh build rather than
		// making the caller re-invoke without -resume.
		fmt.Fprintf(os.Stderr, "hopdb-build: %v; starting fresh\n", err)
		opt.Resume = false
		idx, st, err = hopdb.Build(g, opt)
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "built: method=%v iterations=%d workers=%d entries=%d avg|label|=%.1f size=%.2fMB time=%v\n",
		st.Method, st.Iterations, st.Workers, st.Entries, idx.AvgLabel(), float64(idx.SizeBytes())/(1<<20), st.Duration)
	if st.ResumedFrom > 0 {
		fmt.Fprintf(os.Stderr, "resumed: iterations 1..%d restored from %s\n", st.ResumedFrom, *checkpoint)
	}
	if *external {
		fmt.Fprintf(os.Stderr, "external I/O: %d block reads, %d block writes\n", st.ReadIOs, st.WriteIOs)
	}
	if *stats {
		if st.Workers != *jobs {
			fmt.Fprintf(os.Stderr, "workers: requested %d, effective %d (clamped to 2x GOMAXPROCS)\n", *jobs, st.Workers)
		}
		for _, it := range st.PerIteration {
			mode := "double"
			if it.Stepping {
				mode = "step"
			}
			ios := ""
			if *external {
				ios = fmt.Sprintf(" reads=%d writes=%d", it.ReadIOs, it.WriteIOs)
			}
			fmt.Fprintf(os.Stderr, "  iter %2d [%6s] raw=%d cand=%d pruned=%d new=%d grow=%.2f prune=%.1f%% labels=%d%s (%v)\n",
				it.Iteration, mode, it.Raw, it.Candidates, it.Pruned, it.Survivors,
				it.GrowingFactor(), it.PruningFactor()*100, it.LabelSize, ios, it.Duration)
		}
	}
	save := idx.Save
	if *compact {
		save = idx.SaveCompact
	}
	if err := save(*out); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopdb-build:", err)
	os.Exit(1)
}
