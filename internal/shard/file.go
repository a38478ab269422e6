// Shard files are v2 flat images (label.FlatHeader) carrying a rank
// range: the full original-id -> rank permutation, N+1 offsets per
// side with every row outside [Lo, Hi) empty, and the owned rows'
// entries. label.ParseFlatRange parses and validates them with the code
// that serves whole indexes, so a loaded shard is a FlatIndex aliasing
// its one read buffer.
package shard

import (
	"fmt"
	"os"

	"repro/internal/label"
)

// Shard is one loaded rank-range slice of a partitioned index. It owns
// the label rows of ranks [Lo, Hi) and the full original-id -> rank
// permutation, and implements the Querier contract for pairs whose
// ranks it owns.
type Shard struct {
	Directed bool
	Weighted bool
	// Hub marks the replicated top-rank tier shard.
	Hub bool
	// NumVertices is the global vertex count (not the owned range).
	NumVertices int32
	// Lo, Hi delimit the owned rank range [Lo, Hi).
	Lo, Hi int32
	// Perm maps original vertex ids to ranks; always full length.
	Perm []int32

	// flat holds the owned rows; every other row is empty, so it is
	// read only through the ownership-checked accessors below.
	flat *label.FlatIndex
}

// Owns reports whether rank falls in this shard's range.
func (s *Shard) Owns(rank int32) bool { return rank >= s.Lo && rank < s.Hi }

// OutRowRanked returns Out(rank) for an owned rank (false otherwise).
func (s *Shard) OutRowRanked(rank int32) ([]label.Entry, bool) {
	if !s.Owns(rank) {
		return nil, false
	}
	return s.flat.Out(rank), true
}

// InRowRanked returns In(rank) for an owned rank (false otherwise).
func (s *Shard) InRowRanked(rank int32) ([]label.Entry, bool) {
	if !s.Owns(rank) {
		return nil, false
	}
	return s.flat.In(rank), true
}

// Entries is the shard's label entry count (both families when
// directed).
func (s *Shard) Entries() int64 { return s.flat.Entries() }

// SizeBytes is the in-memory label payload size (8 bytes per entry),
// the quantity capped by rank sharding.
func (s *Shard) SizeBytes() int64 { return s.flat.SizeBytes() }

// Load reads a shard file into one heap buffer and serves it in place.
// A whole-index image is refused.
func Load(path string) (*Shard, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parse(b)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	return s, nil
}

// parse serves a shard image in place: the returned Shard aliases b.
func parse(b []byte) (*Shard, error) {
	f, rr, err := label.ParseFlatRange(b)
	if err != nil {
		return nil, err
	}
	s := &Shard{
		Directed:    f.Directed,
		Weighted:    f.Weighted,
		Hub:         rr.Hub,
		NumVertices: f.N,
		Lo:          rr.Lo,
		Hi:          rr.Hi,
		flat:        f,
	}
	//hopdb:ignore noaliasretain s keeps f, which owns the buffer Perm aliases, for its whole life
	s.Perm = f.Perm
	return s, nil
}
