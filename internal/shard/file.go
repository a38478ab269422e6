// HSH1 shard file format: a self-describing slice of the flat CSR
// index covering one rank range, plus the full original-id -> rank
// permutation so any shard can translate query ids by itself.
//
//	offset  size        field
//	0       4           magic "HSH1"
//	4       1           version (1)
//	5       1           flags: bit0 directed, bit1 weighted, bit2 hub
//	6       2           reserved (zero)
//	8       4           n  (global vertex count, uint32)
//	12      4           lo (first owned rank, uint32)
//	16      4           hi (one past last owned rank, uint32)
//	20      4           reserved (zero)
//	24      4*n (+pad)  perm: original id -> rank, padded to 8 bytes
//	...     8*(hi-lo+1) out offsets (int64, local to this shard)
//	...     8*(hi-lo+1) in offsets (directed only)
//	...     8*outs      out entries (pivot uint32, dist uint32)
//	...     8*ins       in entries (directed only)
//
// All integers are little-endian. Offsets index the entry arrays of
// this file only; row r of the global index lives at local index
// r - lo. Undirected shards store the single label family in the out
// arrays and alias in to it on load, mirroring label.FlatIndex.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/label"
)

const (
	shardMagic   = "HSH1"
	shardVersion = 1

	shardFlagDirected = 1 << 0
	shardFlagWeighted = 1 << 1
	shardFlagHub      = 1 << 2

	shardHeaderSize = 24
)

// Shard is one loaded rank-range slice of a partitioned index. It owns
// the label rows of ranks [Lo, Hi) in CSR form and the full
// original-id -> rank permutation, and implements the Querier contract
// for pairs whose ranks it owns.
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
	// OutOffsets[r-Lo] .. OutOffsets[r-Lo+1] delimit Out(r) in
	// OutEntries for an owned rank r.
	OutOffsets []int64
	OutEntries []label.Entry
	// InOffsets/InEntries alias the out arrays when undirected.
	InOffsets []int64
	InEntries []label.Entry
}

// Owns reports whether rank falls in this shard's range.
func (s *Shard) Owns(rank int32) bool { return rank >= s.Lo && rank < s.Hi }

// OutRowRanked returns Out(rank) for an owned rank (false otherwise).
func (s *Shard) OutRowRanked(rank int32) ([]label.Entry, bool) {
	if !s.Owns(rank) {
		return nil, false
	}
	i := rank - s.Lo
	return s.OutEntries[s.OutOffsets[i]:s.OutOffsets[i+1]], true
}

// InRowRanked returns In(rank) for an owned rank (false otherwise).
func (s *Shard) InRowRanked(rank int32) ([]label.Entry, bool) {
	if !s.Owns(rank) {
		return nil, false
	}
	i := rank - s.Lo
	return s.InEntries[s.InOffsets[i]:s.InOffsets[i+1]], true
}

// Entries is the shard's label entry count (both families when
// directed).
func (s *Shard) Entries() int64 {
	total := int64(len(s.OutEntries))
	if s.Directed {
		total += int64(len(s.InEntries))
	}
	return total
}

// SizeBytes is the in-memory label payload size (8 bytes per entry),
// the quantity capped by rank sharding.
func (s *Shard) SizeBytes() int64 { return s.Entries() * 8 }

// Validate checks every structural invariant of a loaded shard:
// range and permutation sanity, CSR offset monotonicity, sorted pivot
// lists, and the rank invariant (every pivot outranks its owner).
func (s *Shard) Validate() error {
	n := s.NumVertices
	if n < 0 {
		return fmt.Errorf("shard: negative vertex count %d", n)
	}
	if s.Lo < 0 || s.Hi < s.Lo || s.Hi > n {
		return fmt.Errorf("shard: owned range [%d,%d) outside [0,%d)", s.Lo, s.Hi, n)
	}
	if s.Hub && s.Lo != 0 {
		return fmt.Errorf("shard: hub shard must start at rank 0, got %d", s.Lo)
	}
	if int32(len(s.Perm)) != n {
		return fmt.Errorf("shard: perm has %d entries, want %d", len(s.Perm), n)
	}
	seen := make([]uint64, (n+63)/64)
	for v, r := range s.Perm {
		if r < 0 || r >= n {
			return fmt.Errorf("shard: perm[%d]=%d outside [0,%d)", v, r, n)
		}
		if seen[r>>6]&(1<<(uint(r)&63)) != 0 {
			return fmt.Errorf("shard: perm maps two vertices to rank %d", r)
		}
		seen[r>>6] |= 1 << (uint(r) & 63)
	}
	check := func(name string, offs []int64, entries []label.Entry) error {
		rows := int(s.Hi - s.Lo)
		if len(offs) != rows+1 {
			return fmt.Errorf("shard: %s offsets have %d entries, want %d", name, len(offs), rows+1)
		}
		if offs[0] != 0 {
			return fmt.Errorf("shard: %s offsets start at %d, want 0", name, offs[0])
		}
		if offs[rows] != int64(len(entries)) {
			return fmt.Errorf("shard: %s offsets end at %d, want %d", name, offs[rows], len(entries))
		}
		for i := 0; i < rows; i++ {
			if offs[i] > offs[i+1] {
				return fmt.Errorf("shard: %s offsets decrease at row %d", name, i)
			}
			if offs[i+1] > int64(len(entries)) {
				// Only the last offset is pinned to len(entries) above; a
				// middle one may overshoot before a later one decreases.
				return fmt.Errorf("shard: %s offsets overrun the entries at row %d", name, i)
			}
			rank := s.Lo + int32(i)
			row := entries[offs[i]:offs[i+1]]
			for j, e := range row {
				if e.Pivot < 0 || e.Pivot >= rank {
					return fmt.Errorf("shard: %s row %d entry %d: pivot %d does not outrank owner", name, rank, j, e.Pivot)
				}
				if j > 0 && row[j-1].Pivot >= e.Pivot {
					return fmt.Errorf("shard: %s row %d pivots not strictly increasing at %d", name, rank, j)
				}
			}
		}
		return nil
	}
	if err := check("out", s.OutOffsets, s.OutEntries); err != nil {
		return err
	}
	if s.Directed {
		if err := check("in", s.InOffsets, s.InEntries); err != nil {
			return err
		}
	}
	return nil
}

// Load reads, parses, and validates an HSH1 shard file.
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

func parse(b []byte) (*Shard, error) {
	if len(b) < shardHeaderSize {
		return nil, fmt.Errorf("file too short (%d bytes) for header", len(b))
	}
	if string(b[:4]) != shardMagic {
		return nil, fmt.Errorf("bad magic %q", b[:4])
	}
	if b[4] != shardVersion {
		return nil, fmt.Errorf("unsupported version %d", b[4])
	}
	flags := b[5]
	if b[6] != 0 || b[7] != 0 {
		return nil, fmt.Errorf("nonzero reserved header bytes")
	}
	n := int32(binary.LittleEndian.Uint32(b[8:12]))
	lo := int32(binary.LittleEndian.Uint32(b[12:16]))
	hi := int32(binary.LittleEndian.Uint32(b[16:20]))
	if n < 0 || lo < 0 || hi < lo || hi > n {
		return nil, fmt.Errorf("bad range [%d,%d) for %d vertices", lo, hi, n)
	}
	s := &Shard{
		Directed:    flags&shardFlagDirected != 0,
		Weighted:    flags&shardFlagWeighted != 0,
		Hub:         flags&shardFlagHub != 0,
		NumVertices: n,
		Lo:          lo,
		Hi:          hi,
	}
	pos := int64(shardHeaderSize)
	size := int64(len(b))
	take := func(nbytes int64, what string) ([]byte, error) {
		if nbytes < 0 || size-pos < nbytes {
			return nil, fmt.Errorf("truncated %s (need %d bytes at offset %d of %d)", what, nbytes, pos, size)
		}
		sec := b[pos : pos+nbytes]
		pos += nbytes
		return sec, nil
	}
	permBytes, err := take(permSize(n), "perm")
	if err != nil {
		return nil, err
	}
	s.Perm = make([]int32, n)
	for i := range s.Perm {
		s.Perm[i] = int32(binary.LittleEndian.Uint32(permBytes[4*i:]))
	}
	rows := int64(hi-lo) + 1
	readOffsets := func(what string) ([]int64, error) {
		sec, err := take(rows*8, what)
		if err != nil {
			return nil, err
		}
		offs := make([]int64, rows)
		for i := range offs {
			offs[i] = int64(binary.LittleEndian.Uint64(sec[8*i:]))
		}
		return offs, nil
	}
	if s.OutOffsets, err = readOffsets("out offsets"); err != nil {
		return nil, err
	}
	if s.Directed {
		if s.InOffsets, err = readOffsets("in offsets"); err != nil {
			return nil, err
		}
	}
	readEntries := func(offs []int64, what string) ([]label.Entry, error) {
		count := offs[len(offs)-1]
		if count < 0 {
			return nil, fmt.Errorf("negative %s count %d", what, count)
		}
		if count > (size-pos)/8 {
			// Checked before count*8, which a corrupt count can overflow.
			return nil, fmt.Errorf("%s count %d exceeds the %d bytes left", what, count, size-pos)
		}
		sec, err := take(count*8, what)
		if err != nil {
			return nil, err
		}
		entries := make([]label.Entry, count)
		for i := range entries {
			entries[i] = label.Entry{
				Pivot: int32(binary.LittleEndian.Uint32(sec[8*i:])),
				Dist:  binary.LittleEndian.Uint32(sec[8*i+4:]),
			}
		}
		return entries, nil
	}
	if s.OutEntries, err = readEntries(s.OutOffsets, "out entries"); err != nil {
		return nil, err
	}
	if s.Directed {
		if s.InEntries, err = readEntries(s.InOffsets, "in entries"); err != nil {
			return nil, err
		}
	} else {
		s.InOffsets = s.OutOffsets
		s.InEntries = s.OutEntries
	}
	if pos != size {
		return nil, fmt.Errorf("%d trailing bytes after entries", size-pos)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// permSize is the padded on-disk size of the perm section.
func permSize(n int32) int64 {
	sz := int64(n) * 4
	if sz%8 != 0 {
		sz += 4
	}
	return sz
}

// writePreamble emits header, perm, and offset sections; the caller
// streams the entry payloads after it (out entries, then in entries
// when directed).
func writePreamble(w *bufio.Writer, n, lo, hi int32, directed, weighted, hub bool, perm []int32, outOff, inOff []int64) error {
	var hdr [shardHeaderSize]byte
	copy(hdr[:4], shardMagic)
	hdr[4] = shardVersion
	var flags byte
	if directed {
		flags |= shardFlagDirected
	}
	if weighted {
		flags |= shardFlagWeighted
	}
	if hub {
		flags |= shardFlagHub
	}
	hdr[5] = flags
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(lo))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(hi))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	for _, r := range perm {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r))
		if _, err := w.Write(buf[:4]); err != nil {
			return err
		}
	}
	if int64(len(perm))*4 != permSize(n) {
		// Odd vertex count: pad the perm section to the 8-byte boundary.
		binary.LittleEndian.PutUint32(buf[:4], 0)
		if _, err := w.Write(buf[:4]); err != nil {
			return err
		}
	}
	writeOffs := func(offs []int64) error {
		for _, o := range offs {
			binary.LittleEndian.PutUint64(buf[:], uint64(o))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeOffs(outOff); err != nil {
		return err
	}
	if directed {
		if err := writeOffs(inOff); err != nil {
			return err
		}
	}
	return nil
}

// writeEntry appends one (pivot, dist) entry to the payload.
func writeEntry(w io.Writer, pivot int32, dist uint32) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(pivot))
	binary.LittleEndian.PutUint32(buf[4:], dist)
	_, err := w.Write(buf[:])
	return err
}
