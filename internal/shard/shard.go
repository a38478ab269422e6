// Package shard partitions a finished 2-hop label index by contiguous
// rank ranges: N leaf shards each hold the label rows of one rank
// interval, and a replicated hub shard holds the top-rank tier that
// dominates scale-free label rows. Because every label entry's pivot
// outranks its owner, a (u, v) query needs only Out(rank(u)),
// In(rank(v)) and their shared pivots — so vertex rank is a complete
// shard key, each shard answers pairs it owns natively, and a router
// can merge two fetched rows from different shards locally.
//
// The package provides the shard map (rank-range directory, JSON), the
// shard file (a v2 flat image with a rank range), a Querier-compatible
// single-shard backend, the row-fetch wire codec for scatter-gather,
// and the streaming builder that emits shard files straight from the
// external builder's sorted record files without materializing the
// full index in RAM.
package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// MapFile is the name of the shard map JSON written next to the shard
// files by WriteShards.
const MapFile = "shard.json"

// Range is one leaf shard's contiguous rank interval [Lo, Hi).
type Range struct {
	ID int32 `json:"id"`
	Lo int32 `json:"lo"`
	Hi int32 `json:"hi"`
	// File is the shard file name, relative to the map's directory.
	File string `json:"file"`
	// Entries is the shard's label entry count (both families).
	Entries int64 `json:"entries"`
}

// Map is the rank-range directory of a sharded index: a hub tier
// covering ranks [0, HubRanks) plus leaf shards partitioning
// [HubRanks, N). Written by WriteShards as shard.json and loaded by
// the router to plan scatter-gather.
type Map struct {
	Version  int   `json:"version"`
	N        int32 `json:"n"`
	Directed bool  `json:"directed"`
	Weighted bool  `json:"weighted"`
	// HubRanks is the number of top ranks held by the replicated hub
	// shard.
	HubRanks   int32   `json:"hub_ranks"`
	HubFile    string  `json:"hub_file"`
	HubEntries int64   `json:"hub_entries"`
	Shards     []Range `json:"shards"`
}

// DefaultHubRanks is the hub-tier sizing rule: ceil(sqrt(n)) ranks. On
// scale-free graphs label entries concentrate on the highest-ranked
// vertices, so a sqrt(n)-sized tier covers most pair meetings while
// costing each replica only a small fraction of the index.
func DefaultHubRanks(n int32) int32 {
	if n <= 0 {
		return 0
	}
	h := int32(math.Ceil(math.Sqrt(float64(n))))
	if h > n {
		h = n
	}
	return h
}

// Owner resolves the leaf shard owning rank, or -1 when the rank lives
// in the hub tier. rank must be in [0, N).
func (m *Map) Owner(rank int32) int32 {
	if rank < m.HubRanks {
		return -1
	}
	i := sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].Hi > rank })
	return int32(i)
}

// TotalEntries sums label entries across the hub and every leaf shard.
func (m *Map) TotalEntries() int64 {
	total := m.HubEntries
	for _, r := range m.Shards {
		total += r.Entries
	}
	return total
}

// Validate checks the map's structural invariants: leaf ranges are
// contiguous, ascending, and exactly cover [HubRanks, N).
func (m *Map) Validate() error {
	if m.N < 0 {
		return fmt.Errorf("shard: map has negative vertex count %d", m.N)
	}
	if m.HubRanks < 0 || m.HubRanks > m.N {
		return fmt.Errorf("shard: hub tier [0,%d) outside vertex range [0,%d)", m.HubRanks, m.N)
	}
	if m.HubFile == "" {
		return fmt.Errorf("shard: map has no hub file")
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: map has no leaf shards")
	}
	lo := m.HubRanks
	for i, r := range m.Shards {
		if int32(i) != r.ID {
			return fmt.Errorf("shard: leaf %d has id %d", i, r.ID)
		}
		if r.Lo != lo {
			return fmt.Errorf("shard: leaf %d starts at rank %d, want %d (ranges must be contiguous)", i, r.Lo, lo)
		}
		if r.Hi < r.Lo {
			return fmt.Errorf("shard: leaf %d range [%d,%d) is inverted", i, r.Lo, r.Hi)
		}
		if r.File == "" {
			return fmt.Errorf("shard: leaf %d has no file", i)
		}
		lo = r.Hi
	}
	if lo != m.N {
		return fmt.Errorf("shard: leaf ranges end at rank %d, want %d", lo, m.N)
	}
	return nil
}

// Save writes the map as indented JSON at path.
func (m *Map) Save(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadMap reads and validates a shard map written by Save. Relative
// shard file names resolve against the map's directory (see Resolve).
func LoadMap(path string) (*Map, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Map
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid map %s: %w", path, err)
	}
	return &m, nil
}

// Resolve joins a shard file name from the map with the map file's own
// directory, so maps stay relocatable alongside their shard files.
func Resolve(mapPath, file string) string {
	if filepath.IsAbs(file) {
		return file
	}
	return filepath.Join(filepath.Dir(mapPath), file)
}
