// Package wire holds the vocabulary shared by every hopdb query backend
// and the HTTP surface between them: the query-pair and stats types the
// public Querier contract is written in, the sentinel errors of path
// reconstruction, the JSON shapes of the versioned /v1 API, and the
// compact binary batch encoding negotiated by Content-Type.
//
// It is also the one HTTP query front end (http.go): the s/t parser,
// the read-your-writes gate, the bounded batch body reader, the JSON
// and binary batch decoder (Batch) and the distance/batch response
// writers. The server and both router paths call these, so a router
// answers every request exactly as a replica would.
//
// It exists as a separate internal package so the public client package
// can implement hopdb.Querier without importing the root package (which
// imports the client for hopdb.Open's WithRemote): both sides alias or
// reference these definitions instead of each other.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Infinity is the distance reported for unreachable vertex pairs, on the
// wire and in memory.
const Infinity = graph.Infinity

// QueryPair is one (source, target) distance request. The root package
// aliases it as hopdb.QueryPair.
type QueryPair struct {
	S, T int32
}

// Backend identifies which implementation answers a Querier's queries.
type Backend string

// The built-in backend kinds, as reported by Stats and /v1/stats.
const (
	// BackendHeap serves from label arrays resident in process memory,
	// including an index open for online updates (its /v1/stats adds the
	// updates section).
	BackendHeap Backend = "heap"
	// BackendMmap serves from a memory-mapped index file.
	BackendMmap Backend = "mmap"
	// BackendDisk serves an index file from disk, reading only the two
	// label rows each query needs.
	BackendDisk Backend = "disk"
	// BackendRemote forwards queries to a hopdb-serve instance over HTTP.
	BackendRemote Backend = "remote"
	// BackendRouter is the stateless fan-out tier (cmd/hopdb-router): it
	// holds no labels itself and balances queries across a replica fleet.
	BackendRouter Backend = "router"
	// BackendShard serves one contiguous rank range of a partitioned
	// index (hopdb-serve -shard): it holds only its range's label rows
	// plus the shared perm, and answers pairs whose ranks it owns.
	BackendShard Backend = "shard"
)

// ShardInfo identifies the rank range a shard backend owns: ranks
// [Lo, Hi) of the globally ranked index, with Hub marking the replicated
// top-rank tier. Advertised in /v1/stats so routers can build scatter-
// gather plans from the fleet itself.
type ShardInfo struct {
	Lo  int32 `json:"lo"`
	Hi  int32 `json:"hi"`
	Hub bool  `json:"hub,omitempty"`
}

// Kernel identifies which merge kernel answers a backend's distance
// queries, reported by Stats, /v1/stats, and hopdb-query so bench runs
// and smoke tests can assert the intended fast path is actually engaged.
type Kernel string

// The built-in kernels.
const (
	// KernelScalar is the branchy merge-join over 8-byte CSR entries:
	// the baseline every backend can always serve.
	KernelScalar Kernel = "scalar"
	// KernelCompact is the branch-free masked-compare intersection over
	// quantized 4-byte packed keys (heap/mmap backends, when the labels
	// fit the packed fields).
	KernelCompact Kernel = "compact"
	// KernelBitParallel is the bit-parallel hub acceleration (paper
	// Section 6); it takes precedence over the other kernels when
	// enabled.
	KernelBitParallel Kernel = "bitparallel"
)

// QuerierStats describes a query backend: what serves the answers and how
// big the index is. The root package aliases it as hopdb.QuerierStats.
type QuerierStats struct {
	// Backend is the implementation kind (heap, mmap, disk, remote).
	Backend Backend
	// Kernel is the merge kernel answering queries (scalar, compact,
	// bitparallel); empty means scalar on backends predating the field.
	Kernel Kernel
	// Directed reports whether queries respect edge direction.
	Directed bool
	// Vertices is the number of indexed vertices.
	Vertices int32
	// Entries is the number of non-trivial label entries.
	Entries int64
	// SizeBytes is the serialized label size in bytes.
	SizeBytes int64
	// BitParallel reports whether bit-parallel acceleration is active.
	BitParallel bool
	// Shard is the owned rank range of a shard backend; nil for backends
	// holding the whole index.
	Shard *ShardInfo
}

// Path reconstruction errors, shared so the HTTP client can return the
// same sentinels the in-process index does (the root package aliases
// them as hopdb.ErrNoGraph / hopdb.ErrUnreachable).
var (
	// ErrNoGraph is returned by Path when the backend has no graph to
	// walk (e.g. an index freshly loaded from disk).
	ErrNoGraph = errors.New("hopdb: no graph attached")
	// ErrUnreachable is returned by Path when t is not reachable from s.
	ErrUnreachable = errors.New("hopdb: target unreachable")
)

// DistanceResult is the JSON answer for one query pair (/v1/distance and
// each element of a /v1/batch response). Distance is a pointer so
// unreachable pairs omit the field instead of reporting a bogus zero
// (and s==t still reports an explicit 0).
type DistanceResult struct {
	S         int32   `json:"s"`
	T         int32   `json:"t"`
	Distance  *uint32 `json:"distance,omitempty"`
	Reachable bool    `json:"reachable"`
}

// BatchResult is the JSON answer for a /v1/batch request; Results[i]
// answers pairs[i].
type BatchResult struct {
	Results []DistanceResult `json:"results"`
}

// PathResult is the JSON answer for a /v1/path request.
type PathResult struct {
	S        int32   `json:"s"`
	T        int32   `json:"t"`
	Distance uint32  `json:"distance"`
	Path     []int32 `json:"path"`
}

// StatsResult is the JSON answer for /v1/stats and /v1/{dataset}/stats.
type StatsResult struct {
	// Dataset is the dataset these stats describe.
	Dataset string `json:"dataset,omitempty"`
	// Backend is the serving backend kind (heap, mmap, disk, remote).
	Backend string `json:"backend,omitempty"`
	// Kernel is the merge kernel answering this dataset's queries
	// (scalar, compact, bitparallel).
	Kernel string `json:"kernel,omitempty"`
	// BitParallel reports whether bit-parallel acceleration is active.
	BitParallel bool `json:"bit_parallel,omitempty"`
	// Directed reports whether queries respect edge direction.
	Directed      bool    `json:"directed"`
	Vertices      int32   `json:"vertices"`
	Entries       int64   `json:"entries"`
	SizeBytes     int64   `json:"size_bytes"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queries       int64   `json:"queries"`
	QPS           float64 `json:"qps"`
	// Cache is present only when the server's distance cache is enabled;
	// a disabled cache omits the whole section instead of reporting
	// misleading zeros.
	Cache *CacheStats `json:"cache,omitempty"`
	// Updates is present only when the backend accepts online edge
	// updates (hopdb.Updatable); read-only backends omit the section.
	Updates *UpdateStats `json:"updates,omitempty"`
	// Datasets lists every dataset the server currently serves (sorted).
	// Routers scatter a dataset's queries only to replicas advertising it
	// here; an absent list (a pre-multi-tenant server) means {"default"}.
	Datasets []string `json:"datasets,omitempty"`
	// Shard advertises the owned rank range of a shard backend; routers
	// use it to resolve which replicas own which ranks. Absent on
	// backends holding the whole index.
	Shard *ShardInfo `json:"shard,omitempty"`
}

// UpdateStats describes what online label maintenance has done so far;
// served in /v1/stats ("updates" section) and by hopdb.Updatable. The
// root package aliases it as hopdb.UpdateStats.
type UpdateStats struct {
	// Inserts and Deletes count effective mutations (ones that changed
	// the graph); NoOps counts requests that changed nothing (inserting
	// an existing edge at no better weight).
	Inserts int64 `json:"inserts"`
	Deletes int64 `json:"deletes"`
	NoOps   int64 `json:"noops"`
	// PartialRepairs counts deletions absorbed by a bounded repair of
	// the suspect roots; FullRebuilds counts deletions (or accumulated
	// staleness) that forced reconstruction from scratch.
	PartialRepairs int64 `json:"partial_repairs"`
	FullRebuilds   int64 `json:"full_rebuilds"`
	// DirtyVertices is the cumulative number of repaired label roots
	// since the last full rebuild; Staleness is that count over |V|,
	// the fraction the rebuild threshold is compared against.
	DirtyVertices int64   `json:"dirty_vertices"`
	Staleness     float64 `json:"staleness"`
	// OverlayRows and OverlayEntries size the current epoch's
	// copy-on-write overlay: the label rows replaced since the base CSR
	// was cut, and the entries they hold. Compactions counts how often
	// the writer folded the overlay into a fresh base (it does once the
	// overlay exceeds a fixed fraction of the base), which resets both.
	OverlayRows    int64 `json:"overlay_rows"`
	OverlayEntries int64 `json:"overlay_entries"`
	Compactions    int64 `json:"compactions"`
	// Epoch counts published label versions: it advances by exactly one
	// per effective mutation, so readers can correlate answers with
	// graph states.
	Epoch int64 `json:"epoch"`
	// Seq is the sequence number of the last journaled mutation (see
	// SeqEdgeOp); it advances in lockstep with Epoch on a primary and
	// tracks the primary's numbering on a replica. Zero before the first
	// effective mutation.
	Seq int64 `json:"seq"`
}

// SeqEdgeOp is one entry of the replication journal: an effective edge
// mutation stamped with the monotonically increasing sequence number it
// committed at and the label epoch it published. Replaying a journal in
// sequence order on a replica that started from the same index file
// reproduces the primary's label epochs byte for byte.
type SeqEdgeOp struct {
	Seq   int64 `json:"seq"`
	Epoch int64 `json:"epoch"`
	EdgeOp
}

// ReplicationLog is the JSON answer for GET /v1/admin/replication/log:
// the journal suffix after Since, plus the server's current head so a
// replica can tell how far behind it still is.
type ReplicationLog struct {
	// Since echoes the request's ?since= cursor.
	Since int64 `json:"since"`
	// Seq and Epoch are the server's current journal head (not the last
	// op in Ops: with Truncated set there are more ops beyond it).
	Seq   int64 `json:"seq"`
	Epoch int64 `json:"epoch"`
	// Ops holds the journaled mutations with Since < op.Seq, in sequence
	// order.
	Ops []SeqEdgeOp `json:"ops"`
	// Truncated reports that the response was capped and another pull
	// (from the last returned seq) is needed to reach the head.
	Truncated bool `json:"truncated,omitempty"`
}

// Replication and routing headers. Servers stamp every query response
// with the label epoch/sequence that answered it; clients demand
// read-your-writes by sending the minimum sequence they require.
const (
	// HeaderSeq carries the answering backend's journal sequence number
	// on query responses.
	HeaderSeq = "X-Hopdb-Seq"
	// HeaderEpoch carries the answering backend's label epoch on query
	// responses.
	HeaderEpoch = "X-Hopdb-Epoch"
	// HeaderMinSeq, on a request, demands the answer come from a backend
	// at or past that journal sequence; a server that is behind answers
	// 503 so routers and retrying clients move on to a caught-up replica.
	HeaderMinSeq = "X-Hopdb-Min-Seq"
	// HeaderNoHedge, on a request to hopdb-router, disables hedged
	// requests for that request (the control arm when measuring tail
	// latency with hedging on and off).
	HeaderNoHedge = "X-Hopdb-No-Hedge"
	// HeaderRequestID carries the request id: generated at the first tier
	// that sees a request without one, echoed on every response, and
	// propagated on every hop (client -> router -> replica), so one id
	// finds a request in the access logs of every tier it crossed.
	HeaderRequestID = "X-Hopdb-Request-Id"
)

// DefaultDataset is the dataset name the bare legacy routes alias:
// /v1/distance is /v1/default/distance. Single-tenant deployments never
// need to spell it.
const DefaultDataset = "default"

// reservedDatasetNames are path segments that already mean something
// under /v1/ and therefore cannot name a dataset.
var reservedDatasetNames = map[string]bool{
	"admin": true, "batch": true, "datasets": true, "debug": true,
	"distance": true, "healthz": true, "metrics": true, "path": true,
	"rows": true, "stats": true, "v1": true,
}

// ValidateDatasetName reports whether name can name a dataset: 1-64
// characters of [a-zA-Z0-9._-], starting with a letter or digit, and not
// a reserved route segment. The rules keep names safe to splice into
// /v1/{dataset}/... paths and into Prometheus label values unescaped.
func ValidateDatasetName(name string) error {
	if name == "" {
		return errors.New("dataset name is empty")
	}
	if len(name) > 64 {
		return fmt.Errorf("dataset name %q is longer than 64 characters", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("dataset name %q: character %q at position %d not allowed (want [a-zA-Z0-9._-], starting with a letter or digit)", name, c, i)
		}
	}
	if reservedDatasetNames[name] {
		return fmt.Errorf("dataset name %q is a reserved route segment", name)
	}
	return nil
}

// DatasetSpec describes how to open one dataset's backend: the JSON body
// of POST /v1/admin/datasets/{name} and the parsed form of a hopdb-serve
// -dataset flag. Exactly one of Path or Remote must be set; the booleans
// mirror the hopdb.Open options.
type DatasetSpec struct {
	// Path is the index file hopdb-build -o writes.
	Path string `json:"path,omitempty"`
	// Remote proxies the dataset to another hopdb-serve base URL.
	Remote string `json:"remote,omitempty"`
	// Mmap memory-maps the index instead of reading it into heap.
	Mmap bool `json:"mmap,omitempty"`
	// Disk serves the index from disk, its labels never loaded.
	Disk bool `json:"disk,omitempty"`
	// DiskCache is the label-block cache size for Disk backends.
	DiskCache int `json:"disk_cache,omitempty"`
	// Graph attaches the original graph file (enables /path and Updates).
	Graph string `json:"graph,omitempty"`
	// Directed/Weighted describe the graph file's format.
	Directed bool `json:"directed,omitempty"`
	Weighted bool `json:"weighted,omitempty"`
	// BitParallel folds the top-ranked hubs into bit-parallel tuples;
	// <0 disables, 0 selects the paper default, >0 sets the root count.
	BitParallel int `json:"bit_parallel,omitempty"`
	// Updates opens the dataset for online edge updates (needs Graph).
	Updates bool `json:"updates,omitempty"`
	// StaleFraction is the staleness threshold that forces a full label
	// rebuild for Updates backends; 0 selects the default.
	StaleFraction float64 `json:"stale_fraction,omitempty"`
	// Shard opens Path as a rank-shard file written by hopdb-build
	// -shards (serves only its rank range; incompatible with every other
	// option).
	Shard bool `json:"shard,omitempty"`
}

// EdgeOp is one edge mutation of an update batch: the body element of
// POST /v1/admin/edges and the parsed form of a hopdb-update delta line.
type EdgeOp struct {
	// Op is "insert" or "delete".
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
	// W is the edge weight for inserts into weighted graphs; zero means
	// 1. Ignored for deletes and for unweighted graphs.
	W int32 `json:"w,omitempty"`
}

// Edge operation names for EdgeOp.Op.
const (
	OpInsert = "insert"
	OpDelete = "delete"
)

// UpdateResult is the JSON answer for POST /v1/admin/edges. Applied
// counts the ops executed before the first failure (all of them on
// success), so a client can resume a partially applied batch.
type UpdateResult struct {
	Applied int          `json:"applied"`
	Error   string       `json:"error,omitempty"`
	Stats   *UpdateStats `json:"stats,omitempty"`
	// Seq is the journal sequence number after the batch: pass it as
	// X-Hopdb-Min-Seq on subsequent queries for read-your-writes through
	// a router or a replica.
	Seq int64 `json:"seq,omitempty"`
}

// CacheStats reports distance-cache effectiveness in /v1/stats.
type CacheStats struct {
	Capacity int     `json:"capacity"`
	Entries  int     `json:"entries"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}

// Binary batch encoding (little endian), negotiated on /v1/batch by the
// request Content-Type. It exists for high-throughput clients: a pair
// costs 8 bytes instead of ~12-20 JSON characters, and both sides decode
// with zero reflection.
//
//	request:  magic "HBQ1" | count u32 | count x (s i32, t i32)
//	response: magic "HBR1" | count u32 | count x (dist u32)
//
// An unreachable pair answers Infinity (0xFFFFFFFF). The response order
// matches the request order.
const (
	// ContentTypeBinaryBatch selects the binary encoding on /v1/batch;
	// the response is encoded the same way.
	ContentTypeBinaryBatch = "application/x-hopdb-batch"

	batchReqMagic   = "HBQ1"
	batchRespMagic  = "HBR1"
	batchHeaderSize = 8
	pairBytes       = 8
	distBytes       = 4
)

// AppendBatchRequest appends the binary encoding of pairs to dst and
// returns the extended slice.
func AppendBatchRequest(dst []byte, pairs []QueryPair) []byte {
	dst = appendHeader(dst, batchReqMagic, len(pairs))
	for _, p := range pairs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.S))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.T))
	}
	return dst
}

// DecodeBatchRequest decodes a binary batch request into dst (reusing its
// backing array when large enough) and returns the pairs. The encoding is
// strict: a size that disagrees with the header count is an error.
func DecodeBatchRequest(dst []QueryPair, b []byte) ([]QueryPair, error) {
	count, err := headerCount(b, batchReqMagic, "batch request", pairBytes)
	if err != nil {
		return nil, err
	}
	if len(b) != batchHeaderSize+count*pairBytes {
		return nil, fmt.Errorf("wire: batch request is %d bytes, want %d for %d pairs",
			len(b), batchHeaderSize+count*pairBytes, count)
	}
	if cap(dst) < count {
		dst = make([]QueryPair, count)
	}
	dst = dst[:count]
	for i := range dst {
		off := batchHeaderSize + i*pairBytes
		dst[i].S = int32(binary.LittleEndian.Uint32(b[off:]))
		dst[i].T = int32(binary.LittleEndian.Uint32(b[off+4:]))
	}
	return dst, nil
}

// AppendBatchResponse appends the binary encoding of dists to dst and
// returns the extended slice.
func AppendBatchResponse(dst []byte, dists []uint32) []byte {
	dst = appendHeader(dst, batchRespMagic, len(dists))
	for _, d := range dists {
		dst = binary.LittleEndian.AppendUint32(dst, d)
	}
	return dst
}

// DecodeBatchResponse decodes a binary batch response into dst (reusing
// its backing array when large enough) and returns the distances.
func DecodeBatchResponse(dst []uint32, b []byte) ([]uint32, error) {
	count, err := headerCount(b, batchRespMagic, "batch response", distBytes)
	if err != nil {
		return nil, err
	}
	if len(b) != batchHeaderSize+count*distBytes {
		return nil, fmt.Errorf("wire: batch response is %d bytes, want %d for %d results",
			len(b), batchHeaderSize+count*distBytes, count)
	}
	if cap(dst) < count {
		dst = make([]uint32, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[batchHeaderSize+i*distBytes:])
	}
	return dst, nil
}

func appendHeader(dst []byte, magic string, count int) []byte {
	dst = append(dst, magic...)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// header parses the magic and the claimed count of a binary batch
// body, checking the count against nothing else.
func header(b []byte, magic, what string) (uint32, error) {
	if len(b) < batchHeaderSize {
		return 0, fmt.Errorf("wire: %s truncated (%d bytes)", what, len(b))
	}
	if string(b[:4]) != magic {
		return 0, fmt.Errorf("wire: bad %s magic %q", what, b[:4])
	}
	return binary.LittleEndian.Uint32(b[4:8]), nil
}

func headerCount(b []byte, magic, what string, itemBytes int) (int, error) {
	count, err := header(b, magic, what)
	if err != nil {
		return 0, err
	}
	if int64(count) > int64(len(b)-batchHeaderSize)/int64(itemBytes) {
		// A count beyond the payload is rejected before any count-driven
		// allocation; the exact-size checks in the decoders then make
		// the bound tight.
		return 0, fmt.Errorf("wire: %s claims %d items in %d bytes", what, count, len(b))
	}
	return int(count), nil
}
