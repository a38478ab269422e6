package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	hopdb "repro"
	"repro/internal/httpmw"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/wire"
)

// dsState is the per-dataset serving state: the resolved backend
// contracts plus everything that was per-Server before multi-tenancy —
// the distance cache, the admin mutation lock, and the query counters
// behind the dataset-labeled metrics.
type dsState struct {
	ds      *registry.Dataset
	q       hopdb.Querier
	lookup  hopdb.Lookuper
	blookup hopdb.LookupBatcher
	updater hopdb.Updatable
	rep     hopdb.Replicator
	pather  hopdb.Pather
	rows    shard.RowProvider  // non-nil only for shard backends
	backend hopdb.QuerierStats // snapshot at attach (backend kind, directedness)

	cache    *distCache // nil when disabled
	cacheSeq atomic.Int64
	// adminMu serializes admin mutations (one writer at a time); reads
	// never take it.
	//hopdb:lockscope
	adminMu sync.Mutex
	queries atomic.Int64
	lat     metrics.Latency
}

func newDsState(d *registry.Dataset, cfg Config) *dsState {
	backend := d.Querier().Stats()
	rows, _ := d.Querier().(shard.RowProvider)
	return &dsState{
		ds:      d,
		q:       d.Querier(),
		lookup:  d.Lookuper(),
		blookup: d.LookupBatcher(),
		updater: d.Updatable(),
		rep:     d.Replicator(),
		pather:  d.Pather(),
		rows:    rows,
		backend: backend,
		cache:   newDistCache(cfg.CacheEntries, !backend.Directed),
	}
}

// stateFor returns (creating on first use) the serving state of an
// acquired dataset.
func (s *Server) stateFor(d *registry.Dataset) *dsState {
	if v, ok := s.states.Load(d); ok {
		return v.(*dsState)
	}
	v, _ := s.states.LoadOrStore(d, newDsState(d, s.cfg))
	return v.(*dsState)
}

// resolve acquires the named dataset and its serving state, or returns
// a nil dataset when none is attached under name. The caller must call
// d.Release when the request completes.
func (s *Server) resolve(name string) (d *registry.Dataset, st *dsState) {
	d, ok := s.reg.Acquire(name)
	if !ok {
		return nil, nil
	}
	return d, s.stateFor(d)
}

// Registry returns the server's dataset registry.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Attach registers q as dataset name, serving it immediately. When own
// is true the backend is closed once the dataset is detached and
// in-flight requests drain.
func (s *Server) Attach(name string, q hopdb.Querier, own bool) error {
	d, err := s.reg.Attach(name, q, own)
	if err != nil {
		return err
	}
	s.states.Store(d, newDsState(d, s.cfg))
	return nil
}

// Detach unregisters dataset name; readers drain, then an owned backend
// is closed.
func (s *Server) Detach(name string) error {
	d, ok := s.reg.Acquire(name)
	if !ok {
		return fmt.Errorf("dataset %q is not attached", name)
	}
	err := s.reg.Detach(name)
	s.states.Delete(d)
	d.Release()
	return err
}

// OpenSpec opens the backend a DatasetSpec describes, mapping it onto
// hopdb.Open options (the same mapping the hopdb-serve flags use).
func OpenSpec(spec wire.DatasetSpec) (hopdb.Querier, error) {
	if spec.Remote != "" {
		if spec.Path != "" {
			return nil, errors.New("dataset spec: path and remote are mutually exclusive")
		}
		return hopdb.Open("", hopdb.WithRemote(spec.Remote))
	}
	if spec.Path == "" {
		return nil, errors.New("dataset spec: one of path or remote is required")
	}
	if spec.Shard {
		if spec.Mmap || spec.Disk || spec.Updates || spec.Graph != "" || spec.BitParallel > 0 {
			return nil, errors.New("dataset spec: shard cannot be combined with other backend options")
		}
		return hopdb.OpenShard(spec.Path)
	}
	var opts []hopdb.OpenOption
	if spec.Mmap {
		opts = append(opts, hopdb.WithMmap())
	}
	if spec.Disk {
		opts = append(opts, hopdb.WithDisk(hopdb.DiskOptions{CacheLabels: spec.DiskCache}))
	}
	if spec.Graph != "" {
		g, err := hopdb.LoadEdgeList(spec.Graph, spec.Directed, spec.Weighted)
		if err != nil {
			return nil, err
		}
		opts = append(opts, hopdb.WithGraph(g))
	}
	if spec.BitParallel > 0 {
		opts = append(opts, hopdb.WithBitParallel(spec.BitParallel))
	}
	if spec.Updates {
		opts = append(opts, hopdb.WithUpdates(hopdb.UpdateOptions{
			MaxStaleFraction: spec.StaleFraction,
		}))
	}
	return hopdb.Open(spec.Path, opts...)
}

// ParseDatasetFlag parses one hopdb-serve -dataset value:
//
//	name=path[,option...]
//
// where options are mmap, disk, shard, updates, directed, weighted,
// graph=FILE, disk-cache=N, bitparallel=N, and stale=F. A path starting
// with http:// or https:// proxies the dataset from that hopdb-serve
// instead of opening a file.
func ParseDatasetFlag(v string) (name string, spec wire.DatasetSpec, err error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return "", spec, fmt.Errorf("-dataset %q: want name=path[,option...]", v)
	}
	if err := wire.ValidateDatasetName(name); err != nil {
		return "", spec, err
	}
	parts := strings.Split(rest, ",")
	if parts[0] == "" {
		return "", spec, fmt.Errorf("-dataset %s: empty path", name)
	}
	if strings.HasPrefix(parts[0], "http://") || strings.HasPrefix(parts[0], "https://") {
		spec.Remote = parts[0]
	} else {
		spec.Path = parts[0]
	}
	for _, opt := range parts[1:] {
		key, val, hasVal := strings.Cut(opt, "=")
		switch key {
		case "mmap":
			spec.Mmap = true
		case "disk":
			spec.Disk = true
		case "shard":
			spec.Shard = true
		case "updates":
			spec.Updates = true
		case "directed":
			spec.Directed = true
		case "weighted":
			spec.Weighted = true
		case "graph":
			spec.Graph = val
		case "disk-cache":
			spec.DiskCache, err = strconv.Atoi(val)
		case "bitparallel":
			spec.BitParallel, err = strconv.Atoi(val)
		case "stale":
			spec.StaleFraction, err = strconv.ParseFloat(val, 64)
		default:
			return "", spec, fmt.Errorf("-dataset %s: unknown option %q", name, key)
		}
		if err != nil {
			return "", spec, fmt.Errorf("-dataset %s: option %q: %v", name, opt, err)
		}
		if (key == "graph" || key == "disk-cache" || key == "bitparallel" || key == "stale") && !hasVal {
			return "", spec, fmt.Errorf("-dataset %s: option %q needs a value", name, key)
		}
	}
	return name, spec, nil
}

// handleDatasets serves GET /v1/admin/datasets: the stats of every
// attached dataset, sorted by name.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	if !s.authorize(w, r, ScopeAdmin, "") {
		return
	}
	snap := s.reg.Snapshot()
	out := struct {
		Datasets []StatsResult `json:"datasets"`
	}{Datasets: []StatsResult{}}
	for _, d := range snap {
		out.Datasets = append(out.Datasets, s.statsFor(s.stateFor(d)))
		d.Release()
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleDatasetByName serves the dataset lifecycle:
//
//	POST   /v1/admin/datasets/{name}  body: wire.DatasetSpec — open and
//	                                  attach (hot: readers of other
//	                                  datasets are never blocked)
//	DELETE /v1/admin/datasets/{name}  detach; in-flight requests drain,
//	                                  then the backend is closed
func (s *Server) handleDatasetByName(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodPost, http.MethodDelete) {
		return
	}
	name := r.PathValue("name")
	httpmw.SetDataset(r, name)
	if !s.authorize(w, r, ScopeAdmin, name) {
		return
	}
	if err := wire.ValidateDatasetName(name); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	switch r.Method {
	case http.MethodPost:
		s.attachDataset(w, r, name)
	case http.MethodDelete:
		if err := s.Detach(name); err != nil {
			wire.WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		s.logf("dataset %q detached", name)
		wire.WriteJSON(w, http.StatusOK, map[string]any{"dataset": name, "detached": true})
	}
}

func (s *Server) attachDataset(w http.ResponseWriter, r *http.Request, name string) {
	if s.reg.Has(name) {
		wire.WriteError(w, http.StatusConflict, fmt.Sprintf("dataset %q is already attached (detach it first)", name))
		return
	}
	var spec wire.DatasetSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "body must be a dataset spec object: "+err.Error())
		return
	}
	if tok, err := dec.Token(); err != io.EOF {
		wire.WriteError(w, http.StatusBadRequest, fmt.Sprintf("trailing data after the spec object (%v)", tok))
		return
	}
	opener := s.cfg.Opener
	if opener == nil {
		opener = OpenSpec
	}
	q, err := opener(spec)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Sprintf("opening dataset %q: %v", name, err))
		return
	}
	if err := s.Attach(name, q, true); err != nil {
		q.Close()
		// Has() raced with a concurrent attach of the same name.
		wire.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	d, st := s.resolve(name)
	defer d.Release()
	s.logf("dataset %q attached: %s backend, %d vertices", name, st.backend.Backend, st.backend.Vertices)
	wire.WriteJSON(w, http.StatusOK, map[string]any{"dataset": name, "stats": s.statsFor(st)})
}

// handleAccessLog serves GET /v1/admin/accesslog: the ring of recent
// requests, oldest first.
func (s *Server) handleAccessLog(w http.ResponseWriter, r *http.Request) {
	if !wire.AllowMethod(w, r, http.MethodGet) {
		return
	}
	if !s.authorize(w, r, ScopeAdmin, "") {
		return
	}
	s.accessLog.ServeDump(w)
}
