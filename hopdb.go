package hopdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/bitparallel"
	"repro/internal/core"
	"repro/internal/diskidx"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// Graph is the immutable CSR graph all builders consume.
type Graph = graph.Graph

// GraphBuilder accumulates edges; see NewGraphBuilder.
type GraphBuilder = graph.Builder

// Infinity is returned (with ok=false) for unreachable pairs.
const Infinity = graph.Infinity

// NewGraphBuilder returns a builder for a directed/undirected,
// weighted/unweighted graph. Self-loops are dropped and parallel edges
// are collapsed to their minimum weight.
func NewGraphBuilder(directed, weighted bool) *GraphBuilder {
	return graph.NewBuilder(directed, weighted)
}

// LoadEdgeList reads a text edge list ("u v" or "u v w" lines, '#'/'%'
// comments) from a file.
func LoadEdgeList(path string, directed, weighted bool) (*Graph, error) {
	return graph.LoadEdgeListFile(path, directed, weighted)
}

// SaveEdgeList writes g as a text edge list.
func SaveEdgeList(path string, g *Graph) error {
	return graph.SaveEdgeListFile(path, g)
}

// Method selects the construction schedule.
type Method = core.Method

// Construction schedules (paper Sections 3 and 5).
const (
	// Hybrid steps for Options.SwitchIteration iterations, then
	// doubles: the paper's default.
	Hybrid = core.Hybrid
	// Doubling joins new labels against the whole index each
	// iteration.
	Doubling = core.Doubling
	// Stepping joins new labels against single edges each iteration.
	Stepping = core.Stepping
)

// RankStrategy selects the vertex ordering that drives pivot selection.
type RankStrategy = order.Strategy

// Ranking strategies (paper Section 2.1).
const (
	// RankByDegree orders by non-increasing degree (paper default for
	// undirected graphs).
	RankByDegree = order.ByDegree
	// RankByDegreeProduct orders by in-degree*out-degree (paper default
	// for directed graphs).
	RankByDegreeProduct = order.ByDegreeProduct
	// RankByID keeps the caller's vertex numbering as the ranking.
	RankByID = order.ByID
)

// Options configures Build.
type Options struct {
	// Method is the construction schedule (default Hybrid).
	Method Method
	// SwitchIteration is the stepping-to-doubling switch point for
	// Hybrid builds (default 10, as in the paper).
	SwitchIteration int
	// Rank selects the vertex ordering. Leave zero for the paper's
	// defaults (degree; degree product for directed graphs).
	Rank RankStrategy
	// RankSet marks Rank as deliberately chosen, disabling the
	// directed-graph auto-substitution.
	RankSet bool
	// RankKeys, when non-nil, overrides Rank with one score per vertex:
	// larger key = higher rank. This is the custom-ordering hook for
	// general (non-scale-free) graphs the paper's Section 7 describes.
	RankKeys []int64
	// DisablePruning turns off label pruning (for ablations; labels
	// grow but queries stay correct).
	DisablePruning bool
	// MaxIterations caps construction; 0 runs to fixpoint.
	MaxIterations int
	// CollectStats records per-iteration statistics in Stats.
	CollectStats bool
	// Parallelism shards in-memory construction across goroutines;
	// <= 1 runs serially. Results are identical either way (the clamped
	// effective value is reported in Stats.Workers).
	Parallelism int
	// CheckpointDir, when non-empty, makes the in-memory builder persist
	// its full state to this directory after every completed iteration,
	// so a killed build can be resumed with Resume instead of restarted.
	// In-memory builder only (incompatible with External).
	CheckpointDir string
	// Resume continues a build from the checkpoint in CheckpointDir.
	// The checkpoint must match the graph and the result-affecting
	// options (ErrCheckpointMismatch otherwise; ErrNoCheckpoint when the
	// directory holds none); the resumed index is byte-identical to an
	// uninterrupted build.
	Resume bool

	// External selects the disk-based I/O-efficient builder.
	External bool
	// MemoryBudget is the external builder's record budget M.
	MemoryBudget int
	// BlockSize is the external builder's block size B in records.
	BlockSize int
	// TempDir hosts the external builder's working files.
	TempDir string
}

// Stats reports what construction did; see core.BuildStats.
type Stats = core.BuildStats

// Index answers exact point-to-point distance queries. Every in-memory
// regime — Build, a heap or mmap Open, and Open with WithUpdates — serves
// through this one type: the labels are the current epoch of a
// maintenance engine (internal/dynamic), a flat CSR base plus a
// copy-on-write overlay that stays empty unless the index was opened for
// updates.
//
// # Concurrency
//
// An Index is safe for concurrent use: Distance, DistanceBatch, Path, and
// the size accessors may be called from any number of goroutines, because
// they only read an immutable epoch (heap-allocated or mmap'd), loaded
// once per query or per batch. EnableBitParallel and EnableCompact may
// even be invoked while queries are in flight — each accelerated kernel
// is published atomically, so a concurrent query observes either the
// plain merge-join or the accelerated path, all of which return identical
// exact distances. The one ordering requirement is AttachGraph: it must
// complete before any concurrent Path or EnableBitParallel call, since
// the graph pointer itself is not synchronized.
type Index struct {
	// eng owns the published label epoch; on an index opened WithUpdates
	// it is also the writer.
	eng *dynamic.Index
	g   *Graph // retained for Path; may be nil after Load
	// bp is the optional bit-parallel acceleration, published by a
	// single swap once built. Read-only indexes only.
	//hopdb:atomic
	bp atomic.Pointer[bitparallel.Index]
	// ck is the optional branch-free packed kernel, published the same
	// way.
	//hopdb:atomic
	ck atomic.Pointer[label.CompactIndex]
}

// newIndex wraps a frozen label set in the public facade, read-only.
func newIndex(flat *label.FlatIndex, g *Graph) *Index {
	return &Index{eng: dynamic.Static(flat), g: g}
}

// flat returns the labels as one CSR: the open-time arrays on a
// read-only index, a materialisation of the current epoch on an
// updatable one.
func (x *Index) flat() *label.FlatIndex { return x.eng.Current().Flat() }

// view materializes the nested form the bit-parallel transform reads: N
// slice headers per side aliasing the labels' arrays, built per call so
// an index never pays for them unless asked.
func (x *Index) view() *label.Index { return x.flat().View() }

// errUpdatable is what the accelerators return on an index opened
// WithUpdates: their images are built once from the labels, and the next
// edge update would leave them stale.
var errUpdatable = errors.New("hopdb: accelerated kernels serve read-only indexes; this one was opened WithUpdates")

// Checkpoint errors, re-exported from the construction engine for
// errors.Is.
var (
	// ErrNoCheckpoint is returned by a Resume build whose CheckpointDir
	// holds no checkpoint manifest.
	ErrNoCheckpoint = core.ErrNoCheckpoint
	// ErrCheckpointMismatch is returned by a Resume build whose
	// checkpoint was written for a different graph or different
	// result-affecting options.
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
)

// coreOptions maps the public build options onto the engine's.
func coreOptions(opt Options) core.Options {
	return core.Options{
		Method:          opt.Method,
		SwitchIteration: opt.SwitchIteration,
		Rank:            opt.Rank,
		RankSet:         opt.RankSet,
		RankKeys:        opt.RankKeys,
		DisablePruning:  opt.DisablePruning,
		MaxIterations:   opt.MaxIterations,
		CollectStats:    opt.CollectStats,
		Parallelism:     opt.Parallelism,
		CheckpointDir:   opt.CheckpointDir,
		Resume:          opt.Resume,
		MemoryBudget:    opt.MemoryBudget,
		BlockSize:       opt.BlockSize,
		TempDir:         opt.TempDir,
	}
}

// Build constructs an index for g.
func Build(g *Graph, opt Options) (*Index, Stats, error) {
	copt := coreOptions(opt)
	var (
		x   *label.Index
		st  core.BuildStats
		err error
	)
	if opt.External {
		x, st, err = core.BuildExternal(g, copt)
	} else {
		x, st, err = core.Build(g, copt)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	idx := newIndex(label.FreezeParallel(x, opt.Parallelism), g)
	// The packed kernel is auto-enabled whenever the labels are encodable;
	// unencodable labels (a distance beyond 8 bits) keep the scalar kernel
	// with identical answers.
	_ = idx.EnableCompact()
	return idx, st, nil
}

// Distance returns the exact distance from s to t and whether t is
// reachable from s. Vertex ids are the caller's original ids. It is safe
// for concurrent use; see the Index concurrency contract.
func (x *Index) Distance(s, t int32) (uint32, bool) {
	var d uint32
	if bp := x.bp.Load(); bp != nil {
		d = bp.Distance(s, t)
	} else if ck := x.ck.Load(); ck != nil {
		d = ck.Distance(s, t)
	} else {
		d = x.eng.Current().Distance(s, t)
	}
	return d, d != Infinity
}

// N returns the number of indexed vertices.
func (x *Index) N() int32 { return x.eng.N() }

// Entries returns the number of non-trivial label entries.
func (x *Index) Entries() int64 { return x.eng.Current().Entries() }

// AvgLabel returns the average label entries per vertex.
func (x *Index) AvgLabel() float64 {
	if x.N() == 0 {
		return 0
	}
	return float64(x.Entries()) / float64(x.N())
}

// SizeBytes returns the serialized label size in bytes.
func (x *Index) SizeBytes() int64 { return x.eng.Current().SizeBytes() }

// EnableBitParallel folds the top-ranked hub labels into bit-parallel
// tuples (paper Section 6). Only undirected unweighted indexes qualify;
// roots <= 0 selects the paper's default of 50.
//
// It may be called while queries are running: the transformation works on
// a private copy of the label view and the finished bit-parallel index is
// published with one atomic store, so in-flight Distance calls never see
// a half-built structure.
func (x *Index) EnableBitParallel(roots int) error {
	if x.eng.Updatable() {
		return errUpdatable
	}
	if x.g == nil {
		return fmt.Errorf("hopdb: bit-parallel transform needs the graph; unavailable on a loaded index")
	}
	bp, err := bitparallel.Transform(x.view(), x.g, bitparallel.Options{Roots: roots})
	if err != nil {
		return err
	}
	x.bp.Store(bp)
	return nil
}

// EnableCompact packs the labels into the branch-free compact query
// kernel: pivot and distance quantized into one 4-byte key per entry,
// rows sentinel-padded to cache-line lanes, and the merge-join replaced
// by a branchless masked-compare intersection. Answers are byte-identical
// to the scalar kernel; only latency changes. It fails when the labels do
// not fit the packed fields (a distance beyond 8 bits — long weighted
// paths — or more than ~16.7M vertices), in which case queries stay on
// the scalar kernel.
//
// Heap indexes opened through Open (and indexes returned by Build)
// enable the compact kernel automatically when encodable; call sites
// only need EnableCompact for mmap-backed indexes, where the packed
// arrays cost heap memory the mmap regime was chosen to avoid, so Open
// leaves the kernel off (type-assert the Querier to *Index). Like
// EnableBitParallel, it may be called while queries are in flight: the
// packed kernel is published with one atomic store. When bit-parallel
// acceleration is also enabled, it takes precedence. Both accelerators
// refuse an index opened WithUpdates.
func (x *Index) EnableCompact() error {
	if x.eng.Updatable() {
		return errUpdatable
	}
	ck, ok := label.CompactFrom(x.flat())
	if !ok {
		return fmt.Errorf("hopdb: labels exceed the compact kernel's packed fields (distance > %d or vertices > %d)",
			255, 1<<24-1)
	}
	x.ck.Store(ck)
	return nil
}

// Save writes the index to path in the v2 flat binary format, whose label
// payload is the CSR arrays verbatim: the one file Open reads onto the
// heap, Open(path, WithMmap()) maps and Open(path, WithDisk(opt)) serves
// from disk. An updatable index writes
// its current epoch, so a patched index reopens without a rebuild.
func (x *Index) Save(path string) error { return x.save(path, (*label.FlatIndex).Write) }

// SaveCompact writes the index to path in the v3 compact binary format:
// per-row delta-coded varint entries, typically 2-4x smaller than the v2
// flat image on scale-free graphs. A compact file is for shipping and
// cold storage — Open accepts it (decoding it into memory), but it
// cannot be memory-mapped (WithMmap needs the v2 flat layout).
func (x *Index) SaveCompact(path string) error {
	return x.save(path, (*label.FlatIndex).WriteCompact)
}

// save writes the current labels to path with write, removing the file
// when writing fails.
func (x *Index) save(path string, write func(*label.FlatIndex, io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(x.flat(), f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// readFlat is the heap loader behind Open: one read of the whole file,
// then a v3 compact image is delta-decoded into fresh arrays and anything
// else goes to label.ParseFlat, which serves a v2 flat image in place
// (the index's arrays are views into the read buffer) and names the
// format in its error otherwise — the first release's v1 files included,
// which are no longer readable, and shard files, which open with
// OpenShard.
func readFlat(path string) (*label.FlatIndex, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if label.IsCompactImage(buf) {
		return label.ParseCompact(buf)
	}
	return label.ParseFlat(buf)
}

// Close releases resources held by a loaded index (the mapping behind an
// index opened WithMmap). It is a no-op for built or heap-loaded indexes.
func (x *Index) Close() error { return x.eng.Current().Base().Close() }

// AttachGraph re-associates the original graph with a loaded index,
// enabling Path and EnableBitParallel. It must complete before the index
// is shared across goroutines; see the Index concurrency contract.
func (x *Index) AttachGraph(g *Graph) { x.g = g }

// DiskIndex answers queries from a saved v2 index file without loading
// its labels; Open(path, WithDisk(opt)) opens one and Disk reaches it
// behind the Querier.
type DiskIndex = diskidx.DiskIndex

// DiskOptions tunes disk-index querying.
type DiskOptions = diskidx.Options
