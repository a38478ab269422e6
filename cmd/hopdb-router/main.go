// Command hopdb-router is the stateless serving tier in front of a
// fleet of hopdb-serve replicas: it health-checks the fleet, balances
// /v1/distance and /v1/batch across healthy replicas with
// power-of-two-choices on in-flight load, retries transient failures on
// other replicas (a killed replica degrades latency, not availability),
// hedges straggler requests to cut tail latency, splits large batches
// into per-replica chunks over the compact binary codec, and proxies the
// admin surface (edge writes, the replication log) to the primary.
//
// Usage:
//
//	hopdb-router -replicas http://a:8080,http://b:8080,http://c:8080 \
//	    [-primary http://a:8080] [-addr :8090] [-hedge 2ms] \
//	    [-chunk 256] [-max-batch 10000] [-health-interval 500ms] \
//	    [-shard-map shards/shard.json]
//
// With -shard-map the replicas are rank shards from hopdb-build
// -shards (each started with hopdb-serve -shard): the router loads the
// replicated hub shard into its own memory, answers hub-covered pairs
// locally without any leaf RPC, and merges every other pair itself from
// its two label rows, fetching the leaf-owned ones over POST /v1/rows
// with one request per owning shard — all through the same
// hedging/failover machinery.
//
// Routing is dataset-aware: replicas advertise the datasets they serve
// in /v1/stats, and /v1/{dataset}/* requests scatter only to replicas
// advertising that dataset (the flat /v1/* routes serve "default").
// Authorization and X-Hopdb-Request-Id headers are forwarded, so
// per-principal auth happens at the replicas and one request id appears
// in every tier's access log.
//
// Endpoints:
//
//	GET  /v1/[{ds}/]distance?s=1&t=2  balanced + hedged over the fleet
//	POST /v1/[{ds}/]batch      split, fanned out, reassembled in order
//	GET  /v1/[{ds}/]path       relayed whole to one replica
//	GET  /v1/{ds}/stats        relayed to a replica serving the dataset
//	GET  /v1/healthz           200 while at least one replica is healthy
//	GET  /v1/stats             router counters + per-replica states
//	GET  /v1/metrics           Prometheus text exposition
//	GET  /v1/admin/accesslog   the router's own access-log ring
//	ANY  /v1/admin/*           proxied to -primary (501 without one)
//
// Responses carry X-Hopdb-Seq / X-Hopdb-Epoch from the answering replica
// (for batches: the minimum across chunks); clients demand
// read-your-writes by sending X-Hopdb-Min-Seq, which the router forwards
// — a behind replica answers 503 and the router fails over to a
// caught-up one. X-Hopdb-No-Hedge disables hedging per request.
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

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/wire"
)

func main() {
	var (
		replicas  = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		primary   = flag.String("primary", "", "primary base URL for /v1/admin/* proxying (writes, replication log)")
		addr      = flag.String("addr", ":8090", "listen address")
		hedge     = flag.Duration("hedge", 0, "hedge a second replica when the first has not answered within this budget (0 disables)")
		chunk     = flag.Int("chunk", cluster.DefaultChunkSize, "pairs per replica chunk when splitting batches")
		maxBatch  = flag.Int("max-batch", wire.DefaultMaxBatch, "largest accepted batch request, in pairs")
		attempts  = flag.Int("attempts", 0, "max tries per request across replicas (0 = one per replica)")
		healthInt = flag.Duration("health-interval", cluster.DefaultHealthInterval, "replica health probe cadence")
		upTimeout = flag.Duration("upstream-timeout", cluster.DefaultUpstreamTimeout, "per-attempt upstream budget")
		accessN   = flag.Int("accesslog", 0, "access-log ring capacity in entries (0 selects 1024)")
		drain     = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
		shardMapP = flag.String("shard-map", "", "shard.json from hopdb-build -shards: replicas are rank shards; scatter-gather with the hub shard router-resident")
	)
	flag.Parse()
	urls := splitURLs(*replicas)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "hopdb-router: -replicas is required (comma-separated base URLs)")
		flag.Usage()
		os.Exit(2)
	}

	var (
		smap *shard.Map
		hub  *shard.Shard
	)
	if *shardMapP != "" {
		var err error
		if smap, err = shard.LoadMap(*shardMapP); err != nil {
			fail(err)
		}
		if hub, err = shard.Load(shard.Resolve(*shardMapP, smap.HubFile)); err != nil {
			fail(err)
		}
		log.Printf("sharded routing: %d leaf shards, hub tier [0,%d) router-resident (%d entries, %.2fMB)",
			len(smap.Shards), smap.HubRanks, hub.Entries(), float64(hub.SizeBytes())/(1<<20))
	}

	pool := cluster.NewPool(urls, nil, *healthInt)
	rt, err := cluster.NewRouter(pool, cluster.RouterConfig{
		HedgeDelay:      *hedge,
		MaxBatch:        *maxBatch,
		ChunkSize:       *chunk,
		MaxAttempts:     *attempts,
		Primary:         *primary,
		UpstreamTimeout: *upTimeout,
		AccessLogSize:   *accessN,
		ShardMap:        smap,
		Hub:             hub,
	})
	if err != nil {
		fail(err)
	}
	pool.Start()
	defer pool.Stop()
	log.Printf("fronting %d replicas (%d healthy at startup), hedge=%v, chunk=%d",
		pool.Size(), pool.Healthy(), *hedge, *chunk)
	if *primary != "" {
		log.Printf("proxying /v1/admin/* to %s", *primary)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	log.Printf("routing on http://%s", ln.Addr())

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
	st := rt.Stats()
	log.Printf("routed %d requests (%d pairs) over %.1fs: %d retries, %d hedges (%d wins), %d upstream errors",
		st.Requests, st.Queries, st.UptimeSeconds, st.Retries, st.Hedges, st.HedgeWins, st.UpstreamErrors)
}

// splitURLs parses the -replicas list, dropping empties and trailing
// slashes.
func splitURLs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.TrimRight(part, "/"))
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hopdb-router:", err)
	os.Exit(1)
}
