package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/extio"
	"repro/internal/graph"
	"repro/internal/label"
)

// Iteration-boundary checkpointing for the in-memory builder. After
// every completed iteration the engine persists its full state — the
// accumulated labels and the previous iteration's new entries — as
// extio record files, plus a JSON manifest carrying the iteration
// number, running totals, and hashes of the ranked graph and the
// result-affecting options. The write order makes a kill at any point
// recoverable: record files land first, then the manifest is written to
// a temp file and renamed into place, so a reader either sees the old
// complete checkpoint or the new complete checkpoint, never a torn one.
// Superseded record files are deleted only after the rename.
//
// A resumed build replays nothing: it reloads the labels, rebuilds the
// inverted pivot lists, and continues with the next iteration. The
// inverted lists come back in a different order than an uninterrupted
// build would hold them (owner-scan order, without entries superseded
// by a later distance improvement), but that cannot change the result:
// the lists are only read while a pass expands a pivot's group, which
// keeps the minimum distance per owner whatever the arrival order, so
// superseded entries only ever offered distances the minimum discarded.
// The order of the prev entries never mattered either: a pass regroups
// them by pivot. Tests enforce byte-identity of resumed and
// uninterrupted indexes.

// ErrNoCheckpoint reports that Options.Resume was set but
// Options.CheckpointDir contains no checkpoint manifest.
var ErrNoCheckpoint = errors.New("core: no checkpoint found")

// ErrCheckpointMismatch reports that the checkpoint in
// Options.CheckpointDir was written by a build with a different graph
// or different result-affecting options, or is structurally invalid.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match this build")

const (
	ckManifestName = "manifest.json"
	ckVersion      = 1
)

// ckFiles names the record files of one checkpointed iteration. The In
// pair is empty for undirected graphs (one label family).
type ckFiles struct {
	Out     string `json:"out"`
	In      string `json:"in,omitempty"`
	PrevOut string `json:"prev_out"`
	PrevIn  string `json:"prev_in,omitempty"`
}

func (f ckFiles) list() []string {
	return []string{f.Out, f.In, f.PrevOut, f.PrevIn}
}

// ckManifest is the checkpoint metadata, serialized as manifest.json.
// Hashes are hex strings rather than JSON numbers so they survive
// decoders that read numbers as float64.
type ckManifest struct {
	Version   int  `json:"version"`
	Iteration int  `json:"iteration"`
	Done      bool `json:"done"`
	// OptionsHash covers exactly the options that determine the label
	// set: Method, SwitchIteration, DisablePruning. Parallelism,
	// MaxIterations, MaxCandidates, and stats collection are excluded —
	// a build may be resumed with different values for those. Ranking is
	// covered by GraphHash (hashed after relabeling).
	OptionsHash     string      `json:"options_hash"`
	GraphHash       string      `json:"graph_hash"`
	TotalCandidates int64       `json:"total_candidates"`
	TotalPruned     int64       `json:"total_pruned"`
	PerIteration    []IterStats `json:"per_iteration,omitempty"`
	Files           ckFiles     `json:"files"`
}

// checkpointer persists and restores engine state for one build.
type checkpointer struct {
	dir       string
	optHash   string
	graphHash string
	// prev is the record-file set of the last persisted (or loaded)
	// iteration, deleted once the manifest points at a newer one.
	prev ckFiles
}

func newCheckpointer(dir string, g *graph.Graph, opt Options) *checkpointer {
	return &checkpointer{dir: dir, optHash: hashOptions(opt), graphHash: hashRankedGraph(g)}
}

// hashOptions digests the result-affecting options (see
// ckManifest.OptionsHash for what is deliberately excluded).
func hashOptions(opt Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "method=%d switch=%d noprune=%t", opt.Method, opt.SwitchIteration, opt.DisablePruning)
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashRankedGraph digests the ranked graph: vertex count, flags, and
// the out-adjacency structure with weights (which fully determines the
// graph; in-adjacency is its transpose).
func hashRankedGraph(g *graph.Graph) string {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	n := g.N()
	put(uint32(n))
	var flags uint32
	if g.Directed() {
		flags |= 1
	}
	if g.Weighted() {
		flags |= 2
	}
	put(flags)
	for u := int32(0); u < n; u++ {
		adj := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		put(uint32(len(adj)))
		for i, v := range adj {
			put(uint32(v))
			if ws != nil {
				put(uint32(ws[i]))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ckConfig is the extio configuration for checkpoint record files: 4
// KiB blocks, minimal memory (the files are streamed, never sorted).
func ckConfig() extio.Config {
	block := 4096 / extio.RecordBytes
	return extio.Config{BlockRecords: block, MemoryRecords: 2 * block}
}

// save persists the engine state after completed iteration iter. done
// marks a fixpoint checkpoint: resuming one yields the final index
// without running further iterations.
func (c *checkpointer) save(e *engine, iter int, done bool) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	name := func(side string) string { return fmt.Sprintf("iter%06d.%s.rec", iter, side) }
	files := ckFiles{Out: name("out"), PrevOut: name("prevout")}
	if err := writeLabelRecords(filepath.Join(c.dir, files.Out), e.out); err != nil {
		return err
	}
	if err := writeCandRecords(filepath.Join(c.dir, files.PrevOut), e.sides[0].prev); err != nil {
		return err
	}
	if e.directed {
		files.In = name("in")
		files.PrevIn = name("previn")
		if err := writeLabelRecords(filepath.Join(c.dir, files.In), e.in); err != nil {
			return err
		}
		if err := writeCandRecords(filepath.Join(c.dir, files.PrevIn), e.sides[1].prev); err != nil {
			return err
		}
	}
	m := ckManifest{
		Version:         ckVersion,
		Iteration:       iter,
		Done:            done,
		OptionsHash:     c.optHash,
		GraphHash:       c.graphHash,
		TotalCandidates: e.totalCandidates,
		TotalPruned:     e.totalPruned,
		Files:           files,
	}
	if e.opt.CollectStats {
		m.PerIteration = e.iters
	}
	if err := c.writeManifest(m); err != nil {
		return err
	}
	for _, f := range c.prev.list() {
		if f != "" {
			os.Remove(filepath.Join(c.dir, f)) // superseded; best effort
		}
	}
	c.prev = files
	return nil
}

// writeManifest publishes the manifest atomically: temp file, then
// rename over the live name.
func (c *checkpointer) writeManifest(m ckManifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(c.dir, ckManifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(c.dir, ckManifestName))
}

// load restores the last checkpointed state into a freshly constructed
// engine (initialize must NOT have run) and returns the manifest.
func (c *checkpointer) load(e *engine) (ckManifest, error) {
	data, err := os.ReadFile(filepath.Join(c.dir, ckManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return ckManifest{}, fmt.Errorf("%w in %s", ErrNoCheckpoint, c.dir)
	}
	if err != nil {
		return ckManifest{}, err
	}
	var m ckManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return ckManifest{}, fmt.Errorf("%w: unreadable manifest: %v", ErrCheckpointMismatch, err)
	}
	if m.Version != ckVersion {
		return ckManifest{}, fmt.Errorf("%w: manifest version %d, want %d", ErrCheckpointMismatch, m.Version, ckVersion)
	}
	if m.OptionsHash != c.optHash {
		return ckManifest{}, fmt.Errorf("%w: options hash %s, this build %s", ErrCheckpointMismatch, m.OptionsHash, c.optHash)
	}
	if m.GraphHash != c.graphHash {
		return ckManifest{}, fmt.Errorf("%w: graph hash %s, this build %s", ErrCheckpointMismatch, m.GraphHash, c.graphHash)
	}
	wantIn := e.directed
	if (m.Files.In != "") != wantIn || (m.Files.PrevIn != "") != wantIn {
		return ckManifest{}, fmt.Errorf("%w: label families do not match graph directedness", ErrCheckpointMismatch)
	}
	n := e.g.N()
	if err := readLabelRecords(filepath.Join(c.dir, m.Files.Out), n, e.out, e.sides[0].inverted); err != nil {
		return ckManifest{}, err
	}
	if e.sides[0].prev, err = readCandRecords(filepath.Join(c.dir, m.Files.PrevOut), n); err != nil {
		return ckManifest{}, err
	}
	if e.directed {
		if err := readLabelRecords(filepath.Join(c.dir, m.Files.In), n, e.in, e.sides[1].inverted); err != nil {
			return ckManifest{}, err
		}
		if e.sides[1].prev, err = readCandRecords(filepath.Join(c.dir, m.Files.PrevIn), n); err != nil {
			return ckManifest{}, err
		}
	}
	e.totalCandidates = m.TotalCandidates
	e.totalPruned = m.TotalPruned
	e.iters = m.PerIteration
	c.prev = m.Files
	return m, nil
}

// writeLabelRecords streams one label family as (owner, pivot, dist)
// records in owner order; per-owner entries are already pivot-sorted
// (the label invariant), so a sequential reload reproduces the lists
// exactly.
func writeLabelRecords(path string, lists [][]label.Entry) error {
	w, err := extio.NewWriter(path, ckConfig())
	if err != nil {
		return err
	}
	for owner, l := range lists {
		for _, en := range l {
			if err := w.Append(extio.Record{K1: int32(owner), K2: en.Pivot, V: en.Dist}); err != nil {
				w.Close()
				return err
			}
		}
	}
	return w.Close()
}

// writeCandRecords streams one prev side as (owner, pivot, dist).
func writeCandRecords(path string, cands []cand) error {
	w, err := extio.NewWriter(path, ckConfig())
	if err != nil {
		return err
	}
	for _, c := range cands {
		if err := w.Append(extio.Record{K1: c.owner, K2: c.pivot, V: c.dist}); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// readLabelRecords reloads a label family and rebuilds the inverted
// pivot lists. Records must be in range for the graph; anything else
// marks the checkpoint as foreign.
func readLabelRecords(path string, n int32, lists [][]label.Entry, byPivot [][]ownerDist) error {
	r, err := extio.NewReader(path, ckConfig())
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.K1 < 0 || rec.K1 >= n || rec.K2 < 0 || rec.K2 >= n {
			return fmt.Errorf("%w: label record (%d,%d) out of range for |V|=%d", ErrCheckpointMismatch, rec.K1, rec.K2, n)
		}
		lists[rec.K1] = append(lists[rec.K1], label.Entry{Pivot: rec.K2, Dist: rec.V})
		byPivot[rec.K2] = append(byPivot[rec.K2], ownerDist{rec.K1, rec.V})
	}
	return r.Err()
}

// readCandRecords reloads one prev side.
func readCandRecords(path string, n int32) ([]cand, error) {
	r, err := extio.NewReader(path, ckConfig())
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []cand
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.K1 < 0 || rec.K1 >= n || rec.K2 < 0 || rec.K2 >= n {
			return nil, fmt.Errorf("%w: prev record (%d,%d) out of range for |V|=%d", ErrCheckpointMismatch, rec.K1, rec.K2, n)
		}
		out = append(out, cand{owner: rec.K1, pivot: rec.K2, dist: rec.V})
	}
	return out, r.Err()
}
