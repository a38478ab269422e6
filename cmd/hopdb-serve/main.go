// Command hopdb-serve is the long-lived query server: it opens a
// hop-doubling label index once through hopdb.Open — read into memory,
// mmap'd and served from the mapping (-mmap), served
// straight from the block-addressable disk format (-disk), or even
// proxied from another hopdb-serve (-remote) — and answers distance
// queries over the versioned /v1 HTTP API until shut down.
//
// Usage:
//
//	hopdb-serve -idx graph.idx [-addr :8080] [-cache 100000]
//	hopdb-serve -idx graph.idx -mmap -graph graph.txt   # enables /v1/path
//	hopdb-serve -disk graph.didx -disk-cache 4096       # labels stay on disk
//	hopdb-serve -remote http://other:8080               # proxy + cache tier
//	hopdb-serve -shard shards/leaf0.sidx -shard-map shards/shard.json
//	                                                    # one rank shard of a
//	                                                    # hopdb-build -shards
//	                                                    # fleet (front with
//	                                                    # hopdb-router)
//	hopdb-serve -idx graph.idx -graph graph.txt -updates -admin-token secret
//	                                                    # accept edge updates
//	hopdb-serve -idx graph.idx -graph graph.txt -updates \
//	    -replica-of http://primary:8080 -replica-token secret
//	                                                    # pull replica: replays
//	                                                    # the primary's journal
//	hopdb-serve -dataset wiki=wiki.idx -dataset road=road.didx,disk \
//	    -token-file tokens.json                         # multi-tenant: named
//	                                                    # datasets + principals
//
// One process serves any number of named datasets: -idx/-disk/-remote is
// the dataset named "default", each -dataset adds another, and more can
// be attached or detached at runtime through POST/DELETE
// /v1/admin/datasets/{name} without blocking readers.
//
// Endpoints (flat /v1/* routes serve the "default" dataset; every query
// route also exists dataset-scoped as /v1/{dataset}/...):
//
//	GET  /v1/distance?s=1&t=2  one pair
//	POST /v1/batch             JSON array of [s,t] pairs, or the compact
//	                           binary encoding (Content-Type negotiated)
//	GET  /v1/path?s=1&t=2      shortest path (needs -graph)
//	GET  /v1/healthz           liveness
//	GET  /v1/stats             backend kind, index size, uptime, QPS,
//	                           cache hit rate, update counters, datasets
//	GET  /v1/metrics           Prometheus text exposition, per-dataset
//	POST /v1/admin/edges       online edge inserts/deletes (-updates,
//	                           gated by -admin-token or a write-scoped
//	                           principal from -token-file)
//	POST /v1/admin/datasets/{name}    attach a dataset (admin scope)
//	DELETE /v1/admin/datasets/{name}  detach it; readers drain first
//	GET  /v1/admin/accesslog   ring buffer of recent requests
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	hopdb "repro"
	"repro/internal/cluster"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

func main() {
	var (
		idxPath    = flag.String("idx", "", "index file built by hopdb-build (one of -idx/-disk/-remote/-shard)")
		diskPath   = flag.String("disk", "", "disk-query index file built by hopdb-build -disk")
		remoteURL  = flag.String("remote", "", "upstream hopdb-serve URL to proxy (adds a serving + cache tier)")
		shardPath  = flag.String("shard", "", "rank-shard file written by hopdb-build -shards; serves only its rank range (pair with hopdb-router -shard-map)")
		shardMapP  = flag.String("shard-map", "", "shard.json to validate -shard against (optional but recommended)")
		useMmap    = flag.Bool("mmap", false, "memory-map the -idx file (v2 flat format) and serve the labels from the mapping, paged on demand")
		diskLabels = flag.Int("disk-cache", 0, "label lists kept in memory by the -disk backend (0 disables)")
		graphPath  = flag.String("graph", "", "original edge list; attaching it enables /v1/path and -bitparallel")
		directed   = flag.Bool("directed", false, "treat -graph edges as directed")
		weighted   = flag.Bool("weighted", false, "read -graph third column as weight")
		bitpar     = flag.Int("bitparallel", 0, "enable bit-parallel acceleration with this many roots (needs -graph; undirected unweighted only)")
		updates    = flag.Bool("updates", false, "accept online edge updates via POST /v1/admin/edges (needs -idx and -graph)")
		adminToken = flag.String("admin-token", "", "bearer token gating the admin API; empty disables /v1/admin/*")
		staleFrac  = flag.Float64("stale", 0, "dirty-vertex fraction beyond which a delete full-rebuilds the labels (default 0.25)")
		replicaOf  = flag.String("replica-of", "", "primary base URL to replicate from (needs -updates; rejects direct writes)")
		replicaTok = flag.String("replica-token", "", "primary's admin bearer token (the replication log is gated)")
		replicaInt = flag.Duration("replica-interval", 500*time.Millisecond, "idle replication poll cadence")
		replicaSeq = flag.Int64("replica-seq", 0, "journal sequence the -idx snapshot was saved at (the primary's updates.seq at save time); replication resumes from there")
		replicaDS  = flag.String("replica-dataset", "", "primary-side dataset whose journal is replayed (default: the default dataset)")
		addr       = flag.String("addr", ":8080", "listen address")
		cache      = flag.Int("cache", 0, "distance cache budget in entries, per dataset (0 disables)")
		workers    = flag.Int("workers", 0, "batch worker pool size (default GOMAXPROCS)")
		maxBatch   = flag.Int("max-batch", server.DefaultMaxBatch, "largest accepted batch request, in pairs")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request timeout on query routes (0 disables)")
		adminTmo   = flag.Duration("admin-timeout", 0, "per-request timeout on admin routes (0 disables; label rebuilds outlive query budgets)")
		tokenFile  = flag.String("token-file", "", "JSON file of principals (bearer tokens with scopes and per-dataset grants); enables principal auth")
		rateQPS    = flag.Float64("rate", 0, "default per-principal rate limit in answered pairs per second (0 disables)")
		rateBurst  = flag.Float64("burst", 0, "rate-limit token-bucket depth (default: the -rate value)")
		maxInfl    = flag.Int("max-inflight", 0, "batch pairs admitted concurrently across all requests; overflow sheds with 429 (0 disables)")
		accessN    = flag.Int("accesslog", 0, "access-log ring capacity in entries (0 selects 1024)")
		pprofOn    = flag.Bool("pprof", false, "mount /debug/pprof (admin-scope gated when auth is configured)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
	)
	type namedSpec struct {
		name string
		spec wire.DatasetSpec
	}
	var extra []namedSpec
	flag.Func("dataset",
		"serve a named dataset: name=path[,mmap][,disk][,updates][,directed][,weighted][,graph=FILE][,disk-cache=N][,bitparallel=N][,stale=F]; repeatable; an http(s):// path proxies a remote server",
		func(v string) error {
			name, spec, err := server.ParseDatasetFlag(v)
			if err != nil {
				return err
			}
			extra = append(extra, namedSpec{name, spec})
			return nil
		})
	flag.Parse()
	sources := 0
	for _, s := range []string{*idxPath, *diskPath, *remoteURL, *shardPath} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 || (sources == 0 && len(extra) == 0) {
		fmt.Fprintln(os.Stderr, "hopdb-serve: exactly one of -idx/-disk/-remote/-shard (the default dataset), or at least one -dataset, is required")
		flag.Usage()
		os.Exit(2)
	}
	if *shardPath != "" && (*useMmap || *graphPath != "" || *bitpar > 0 || *updates) {
		fail(errors.New("-shard serves a static rank slice; drop -mmap/-graph/-bitparallel/-updates"))
	}
	if *shardMapP != "" && *shardPath == "" {
		fail(errors.New("-shard-map needs -shard"))
	}

	// Assemble the hopdb.Open call the flags describe; every backend
	// comes back as the same Querier and the server serves it unchanged.
	path := *idxPath
	var opts []hopdb.OpenOption
	switch {
	case *diskPath != "":
		path = *diskPath
		opts = append(opts, hopdb.WithDisk(hopdb.DiskOptions{CacheLabels: *diskLabels}))
	case *remoteURL != "":
		opts = append(opts, hopdb.WithRemote(*remoteURL))
	default:
		if *useMmap {
			opts = append(opts, hopdb.WithMmap())
		}
	}
	if *graphPath != "" {
		if *idxPath == "" {
			fail(errors.New("-graph needs an in-memory index (-idx)"))
		}
		g, err := hopdb.LoadEdgeList(*graphPath, *directed, *weighted)
		if err != nil {
			fail(err)
		}
		opts = append(opts, hopdb.WithGraph(g))
	}
	if *bitpar > 0 {
		opts = append(opts, hopdb.WithBitParallel(*bitpar))
	}
	if *updates {
		// Open validates the combination (heap index + graph, no
		// mmap/disk/remote/bit-parallel) and reports a precise error.
		opts = append(opts, hopdb.WithUpdates(hopdb.UpdateOptions{
			MaxStaleFraction: *staleFrac,
			InitialSeq:       *replicaSeq,
		}))
	}
	if *replicaOf != "" && !*updates {
		fail(errors.New("-replica-of needs -updates (replication replays the journal through the maintenance engine)"))
	}

	var q hopdb.Querier // the default dataset's backend, when one is given
	if sources == 1 {
		start := time.Now()
		var err error
		if *shardPath != "" {
			q, err = hopdb.OpenShard(*shardPath)
			if err == nil && *shardMapP != "" {
				err = checkShardMap(q, *shardMapP)
			}
		} else {
			q, err = hopdb.Open(path, opts...)
		}
		if err != nil {
			fail(err)
		}
		defer q.Close()
		st := q.Stats()
		if st.Shard != nil {
			log.Printf("shard ranks [%d,%d) of %d vertices (hub=%v)", st.Shard.Lo, st.Shard.Hi, st.Vertices, st.Shard.Hub)
		}
		log.Printf("opened %s backend in %v: %d vertices, %d entries (%d bytes)",
			st.Backend, time.Since(start).Round(time.Millisecond), st.Vertices, st.Entries, st.SizeBytes)
		if *graphPath != "" {
			log.Printf("attached graph %s: /v1/path enabled", *graphPath)
		}
		if st.BitParallel {
			log.Printf("bit-parallel acceleration enabled with %d roots", *bitpar)
		}
	}
	if *updates {
		if *adminToken == "" && *tokenFile == "" {
			log.Printf("online updates enabled, but no -admin-token or -token-file set: POST /v1/admin/edges will answer 403")
		} else {
			log.Printf("online updates enabled: POST /v1/admin/edges (bearer-token gated)")
		}
	}

	var principals []server.Principal
	if *tokenFile != "" {
		var err error
		principals, err = server.LoadTokenFile(*tokenFile)
		if err != nil {
			fail(err)
		}
		log.Printf("loaded %d principals from %s", len(principals), *tokenFile)
	}

	// Assemble the dataset registry: the -idx/-disk/-remote backend is
	// the "default" dataset; each -dataset adds a named one.
	reg := registry.New()
	if q != nil {
		if _, err := reg.Attach(wire.DefaultDataset, q, false); err != nil {
			fail(err)
		}
	}
	for _, d := range extra {
		start := time.Now()
		dq, err := server.OpenSpec(d.spec)
		if err != nil {
			fail(fmt.Errorf("dataset %s: %w", d.name, err))
		}
		if _, err := reg.Attach(d.name, dq, true); err != nil {
			dq.Close()
			fail(err)
		}
		st := dq.Stats()
		log.Printf("dataset %q: opened %s backend in %v: %d vertices, %d entries",
			d.name, st.Backend, time.Since(start).Round(time.Millisecond), st.Vertices, st.Entries)
	}

	srv := server.NewRegistry(reg, server.Config{
		CacheEntries:     *cache,
		MaxBatch:         *maxBatch,
		Workers:          *workers,
		Timeout:          *timeout,
		AdminTimeout:     *adminTmo,
		AdminToken:       *adminToken,
		Principals:       principals,
		RateQPS:          *rateQPS,
		RateBurst:        *rateBurst,
		MaxInflightPairs: *maxInfl,
		AccessLogSize:    *accessN,
		EnablePprof:      *pprofOn,
		Replica:          *replicaOf != "",
	})

	// Replica mode: replay the primary's mutation journal in the
	// background. Replication halting (journal gap, divergence) is fatal
	// — continuing to serve would silently return stale answers forever.
	pullCtx, pullCancel := context.WithCancel(context.Background())
	defer pullCancel()
	if *replicaOf != "" {
		rep, ok := q.(hopdb.Replicator)
		if !ok {
			fail(errors.New("backend does not journal mutations; replication needs -idx with -updates"))
		}
		primary := strings.TrimRight(*replicaOf, "/")
		go func() {
			if err := cluster.Pull(pullCtx, rep, cluster.PullConfig{
				Primary:  primary,
				Token:    *replicaTok,
				Dataset:  *replicaDS,
				Interval: *replicaInt,
				Logf:     log.Printf,
			}); err != nil {
				log.Printf("hopdb-serve: replication halted: %v", err)
				os.Exit(1)
			}
		}()
		log.Printf("replica mode: pulling %s every %v (direct writes rejected)", primary, *replicaInt)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	log.Printf("serving datasets %v on http://%s (cache=%d entries, max-batch=%d, timeout=%v)",
		reg.Names(), ln.Addr(), *cache, *maxBatch, *timeout)

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case s := <-sig:
		log.Printf("received %v, draining (budget %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		<-done
	}
	fin := srv.Stats()
	log.Printf("served %d queries over %.1fs (%.0f qps)", fin.Queries, fin.UptimeSeconds, fin.QPS)
}

// checkShardMap cross-checks an opened shard backend against a
// shard.json: the advertised rank range must be the map's hub tier or
// one of its leaves, over the same vertex count — catching a stale or
// mismatched shard file before the router ever routes to it.
func checkShardMap(q hopdb.Querier, mapPath string) error {
	m, err := shard.LoadMap(mapPath)
	if err != nil {
		return err
	}
	st := q.Stats()
	si := st.Shard
	if st.Vertices != m.N {
		return fmt.Errorf("shard has %d vertices but %s describes %d", st.Vertices, mapPath, m.N)
	}
	if si.Hub {
		if si.Lo != 0 || si.Hi != m.HubRanks {
			return fmt.Errorf("hub shard covers [%d,%d) but %s's hub tier is [0,%d)", si.Lo, si.Hi, mapPath, m.HubRanks)
		}
		return nil
	}
	for _, sh := range m.Shards {
		if sh.Lo == si.Lo && sh.Hi == si.Hi {
			return nil
		}
	}
	return fmt.Errorf("shard covers ranks [%d,%d), which is no leaf of %s (stale shard map?)", si.Lo, si.Hi, mapPath)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopdb-serve:", err)
	os.Exit(1)
}
