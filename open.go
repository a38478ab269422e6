package hopdb

import (
	"fmt"
	"net/http"
	"sync"

	"repro/client"
	"repro/internal/diskidx"
	"repro/internal/dynamic"
)

// OpenOption configures Open; see WithMmap, WithDisk, WithGraph,
// WithBitParallel, WithRemote, and WithHTTPClient.
type OpenOption func(*openConfig)

type openConfig struct {
	mmap      bool
	disk      bool
	diskOpt   DiskOptions
	graph     *Graph
	bp        bool
	bpRoots   int
	remotes   []string
	httpc     *http.Client
	dataset   string
	token     string
	updates   bool
	updateOpt UpdateOptions
}

// WithMmap memory-maps the index file (v2 flat format) instead of
// reading it, and serves the labels from the mapping itself: O(1)
// allocations at load, pages faulted in on demand, O(1) heap retained.
// The compact kernel stays off, since its packed copy would be heap; see
// Index.EnableCompact. The file must not be rewritten in place while it
// is open. The backend kind is BackendMmap.
func WithMmap() OpenOption {
	return func(c *openConfig) { c.mmap = true }
}

// WithDisk opens the block-addressable disk-query format written by
// Index.SaveDiskIndex (hopdb-build -disk): labels stay on disk and each
// query reads only the two blocks it needs. The backend kind is
// BackendDisk. Disk backends answer distances only; combining WithDisk
// with WithGraph or WithBitParallel is an error.
func WithDisk(opt DiskOptions) OpenOption {
	return func(c *openConfig) { c.disk = true; c.diskOpt = opt }
}

// WithGraph attaches the original graph to the opened index, enabling
// shortest-path reconstruction (Pather) and WithBitParallel.
func WithGraph(g *Graph) OpenOption {
	return func(c *openConfig) { c.graph = g }
}

// WithBitParallel folds the top-ranked hub labels into bit-parallel
// tuples after loading (paper Section 6). Requires WithGraph; only
// undirected unweighted indexes qualify. roots <= 0 selects the paper's
// default of 50.
func WithBitParallel(roots int) OpenOption {
	return func(c *openConfig) { c.bp = true; c.bpRoots = roots }
}

// WithRemote queries a hopdb-serve instance at url (e.g.
// "http://idx.internal:8080") over its versioned /v1 HTTP API instead of
// opening a local file: Open's path must be empty. The backend kind is
// BackendRemote. The returned Querier is a *client.Client (package
// repro/client), which also implements Pather when the server has a
// graph attached.
func WithRemote(url string) OpenOption {
	return WithRemotes(url)
}

// WithRemotes is WithRemote over a replica fleet: the returned Querier
// prefers one endpoint at a time and fails over to the next on transient
// errors (connection failures, 502/503/504), with capped exponential
// backoff and jitter between attempts. All endpoints must serve the same
// index — hopdb-serve replicas converged through the replication log, or
// hopdb-router instances in front of them.
func WithRemotes(urls ...string) OpenOption {
	return func(c *openConfig) { c.remotes = urls }
}

// WithHTTPClient sets the http.Client a WithRemote backend uses (for
// custom timeouts, transports, or middleware). Ignored for local
// backends.
func WithHTTPClient(hc *http.Client) OpenOption {
	return func(c *openConfig) { c.httpc = hc }
}

// WithDataset selects a named dataset on a multi-tenant hopdb-serve (or
// hopdb-router): queries go to /v1/{name}/* instead of the flat /v1/*
// routes, which serve the dataset named "default". Requires
// WithRemote(s).
func WithDataset(name string) OpenOption {
	return func(c *openConfig) { c.dataset = name }
}

// WithToken sends token as "Authorization: Bearer ..." on every request
// a WithRemote backend makes, for servers running with a token file or
// admin token. Requires WithRemote(s).
func WithToken(token string) OpenOption {
	return func(c *openConfig) { c.token = token }
}

// WithUpdates opens the index for online edge updates: the returned
// Querier also implements Updatable (InsertEdge/DeleteEdge patch the
// labels in place and publish a fresh immutable epoch, so concurrent
// readers never block). Requires WithGraph — maintenance walks the
// adjacency — and the labels are read into heap memory: combining
// WithUpdates with WithMmap, WithDisk, WithRemote, or WithBitParallel is
// an error (those backends serve read-only label images). The backend
// kind is BackendDynamic.
func WithUpdates(opt UpdateOptions) OpenOption {
	return func(c *openConfig) { c.updates = true; c.updateOpt = opt }
}

// Open is the single entry point for opening a saved index for querying,
// whatever regime it should serve from:
//
//	q, err := hopdb.Open("graph.idx")                          // heap
//	q, err := hopdb.Open("graph.idx", hopdb.WithMmap())        // mmap, served in place
//	q, err := hopdb.Open("graph.didx", hopdb.WithDisk(hopdb.DiskOptions{}))
//	q, err := hopdb.Open("", hopdb.WithRemote("http://host:8080"))
//
// All backends answer identical distances through the Querier contract;
// they differ only in where the labels live. Close the returned Querier
// when done.
func Open(path string, opts ...OpenOption) (Querier, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.remotes) > 0 {
		if path != "" {
			return nil, fmt.Errorf("hopdb: Open: path must be empty with WithRemote(s), got %q", path)
		}
		if cfg.mmap || cfg.disk || cfg.graph != nil || cfg.bp || cfg.updates {
			return nil, fmt.Errorf("hopdb: Open: WithRemote(s) cannot be combined with local-backend options")
		}
		return client.NewMulti(cfg.remotes, client.Options{
			HTTPClient: cfg.httpc,
			Dataset:    cfg.dataset,
			Token:      cfg.token,
		})
	}
	if cfg.dataset != "" || cfg.token != "" {
		return nil, fmt.Errorf("hopdb: Open: WithDataset/WithToken apply only to WithRemote(s) backends")
	}
	if cfg.updates {
		if cfg.mmap || cfg.disk {
			return nil, fmt.Errorf("hopdb: Open: WithUpdates needs heap labels; it cannot be combined with WithMmap or WithDisk")
		}
		if cfg.bp {
			return nil, fmt.Errorf("hopdb: Open: WithUpdates cannot be combined with WithBitParallel (the bit-parallel image would go stale)")
		}
		if cfg.graph == nil {
			return nil, fmt.Errorf("hopdb: Open: WithUpdates requires WithGraph (maintenance walks the adjacency)")
		}
		idx, err := loadIndex(path)
		if err != nil {
			return nil, err
		}
		dopt := dynamic.Options{
			MaxStaleFraction:   cfg.updateOpt.MaxStaleFraction,
			RebuildParallelism: cfg.updateOpt.RebuildParallelism,
			JournalLimit:       cfg.updateOpt.JournalLimit,
			InitialSeq:         cfg.updateOpt.InitialSeq,
		}
		if cfg.updateOpt.Rebuild != nil {
			// Staleness-triggered full rebuilds replay the original build
			// configuration instead of zero-value defaults.
			dopt.Build = coreOptions(*cfg.updateOpt.Rebuild)
		}
		dyn, err := dynamic.New(idx.flat, cfg.graph, dopt)
		if err != nil {
			return nil, err
		}
		return &dynQuerier{d: dyn}, nil
	}
	if cfg.disk {
		if cfg.mmap {
			return nil, fmt.Errorf("hopdb: Open: WithDisk and WithMmap are mutually exclusive")
		}
		if cfg.graph != nil || cfg.bp {
			return nil, fmt.Errorf("hopdb: Open: the disk backend answers distances only; WithGraph/WithBitParallel need an in-memory index")
		}
		d, err := diskidx.Open(path, cfg.diskOpt)
		if err != nil {
			return nil, err
		}
		return &diskQuerier{d: d}, nil
	}
	var (
		idx *Index
		err error
	)
	if cfg.mmap {
		idx, err = loadIndexFlat(path)
	} else {
		idx, err = loadIndex(path)
	}
	if err != nil {
		return nil, err
	}
	if cfg.graph != nil {
		idx.AttachGraph(cfg.graph)
	}
	if !cfg.mmap {
		// Heap-backed opens get the packed kernel automatically when the
		// labels are encodable; otherwise queries stay on the scalar
		// kernel with identical answers. Mmap stays scalar: the packed
		// keys are heap arrays, which would defeat the point of mapping
		// the file (a caller that wants them calls EnableCompact on the
		// *Index).
		_ = idx.EnableCompact()
	}
	if cfg.bp {
		if err := idx.EnableBitParallel(cfg.bpRoots); err != nil {
			idx.Close()
			return nil, err
		}
	}
	return idx, nil
}

// diskQuerier adapts a DiskIndex to the Querier contract. The Querier
// methods report reachability, not errors, so there a read error answers
// (Infinity, false); callers that care use the error-reporting Lookup /
// LookupBatchInto extension (as the server does) or the DiskIndex
// directly (see Disk).
type diskQuerier struct {
	d *diskidx.DiskIndex
}

func (q *diskQuerier) Distance(s, t int32) (uint32, bool) {
	d, ok, _ := q.Lookup(s, t)
	return d, ok
}

// Lookup implements Lookuper, surfacing disk read errors.
func (q *diskQuerier) Lookup(s, t int32) (uint32, bool, error) {
	d, err := q.d.Distance(s, t)
	if err != nil {
		return Infinity, false, err
	}
	return d, d != Infinity, nil
}

func (q *diskQuerier) DistanceBatchInto(results []uint32, pairs []QueryPair, workers int) []uint32 {
	out, _ := q.LookupBatchInto(results, pairs, workers)
	return out
}

// LookupBatchInto implements LookupBatcher: the batch is sharded across
// workers, each reusing one scratch (read + decode buffers) for its
// whole chunk, and the first disk read error is reported (errored pairs
// answer Infinity in results).
func (q *diskQuerier) LookupBatchInto(results []uint32, pairs []QueryPair, workers int) ([]uint32, error) {
	var (
		errOnce  sync.Once
		firstErr error
	)
	out := batchInto(results, pairs, workers, func(pairs []QueryPair, results []uint32) {
		var sc diskidx.Scratch
		for i, p := range pairs {
			d, err := q.d.DistanceScratch(p.S, p.T, &sc)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				d = Infinity
			}
			results[i] = d
		}
	})
	return out, firstErr
}

func (q *diskQuerier) N() int32 { return q.d.N() }

func (q *diskQuerier) Stats() QuerierStats {
	return QuerierStats{
		Backend:   BackendDisk,
		Kernel:    KernelScalar,
		Directed:  q.d.Directed(),
		Vertices:  q.d.N(),
		Entries:   q.d.Entries(),
		SizeBytes: q.d.SizeBytes(),
	}
}

func (q *diskQuerier) Close() error { return q.d.Close() }

// Disk exposes the underlying DiskIndex (I/O accounting, error-reporting
// queries) of a Querier opened with WithDisk, or nil for other backends.
func Disk(q Querier) *DiskIndex {
	if dq, ok := q.(*diskQuerier); ok {
		return dq.d
	}
	return nil
}
