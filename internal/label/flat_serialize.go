package label

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// v2 flat index format (little endian, every section 8-byte aligned so a
// memory-mapped or single-read file can be addressed in place):
//
//	 0  magic "HDX2"
//	 4  version u8 = 2
//	 5  flags u8: bit0 directed, bit1 weighted, bit2 perm present
//	 6  reserved u16 (zero)
//	 8  n u32
//	12  reserved u32 (zero)
//	16  perm u32[n] if flags&4, zero-padded to an 8-byte boundary
//	 .  out offsets i64[n+1]
//	 .  in offsets i64[n+1] if directed
//	 .  out entries (pivot u32, dist u32)[outCount]
//	 .  in entries if directed
//
// The label payload (offsets + entries) is the FlatIndex CSR arrays
// verbatim, so on little-endian hosts the hopdb_unsafe build's ParseFlat
// returns views into the input buffer with no per-vertex allocation at
// all; the default build decodes into fresh slices (one allocation per
// array, still no per-vertex slices).
const (
	flatMagic      = "HDX2"
	flatVersion    = 2
	flatHeaderSize = 16

	flagDirected = 1 << 0
	flagWeighted = 1 << 1
	flagPerm     = 1 << 2
	knownFlags   = flagDirected | flagWeighted | flagPerm
)

// Write serializes the flat index in the v2 format.
func (f *FlatIndex) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [flatHeaderSize]byte
	copy(hdr[:4], flatMagic)
	hdr[4] = flatVersion
	flags := byte(0)
	if f.Directed {
		flags |= flagDirected
	}
	if f.Weighted {
		flags |= flagWeighted
	}
	if f.Perm != nil {
		flags |= flagPerm
	}
	hdr[5] = flags
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(f.N))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var b8 [8]byte
	if f.Perm != nil {
		if raw, ok := int32Bytes(f.Perm); ok {
			// In-memory layout matches the format: emit the section in
			// one write (bufio passes large writes straight through).
			if _, err := bw.Write(raw); err != nil {
				return err
			}
		} else {
			for _, p := range f.Perm {
				binary.LittleEndian.PutUint32(b8[:4], uint32(p))
				if _, err := bw.Write(b8[:4]); err != nil {
					return err
				}
			}
		}
		if len(f.Perm)%2 == 1 {
			var pad [4]byte
			if _, err := bw.Write(pad[:]); err != nil {
				return err
			}
		}
	}
	writeOffsets := func(offsets []int64) error {
		if raw, ok := int64Bytes(offsets); ok {
			_, err := bw.Write(raw)
			return err
		}
		for _, o := range offsets {
			binary.LittleEndian.PutUint64(b8[:], uint64(o))
			if _, err := bw.Write(b8[:]); err != nil {
				return err
			}
		}
		return nil
	}
	writeEntries := func(entries []Entry) error {
		if raw, ok := entryBytes(entries); ok {
			_, err := bw.Write(raw)
			return err
		}
		for _, e := range entries {
			binary.LittleEndian.PutUint32(b8[:4], uint32(e.Pivot))
			binary.LittleEndian.PutUint32(b8[4:], e.Dist)
			if _, err := bw.Write(b8[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeOffsets(f.OutOffsets); err != nil {
		return err
	}
	if f.Directed {
		if err := writeOffsets(f.InOffsets); err != nil {
			return err
		}
	}
	if err := writeEntries(f.OutEntries); err != nil {
		return err
	}
	if f.Directed {
		if err := writeEntries(f.InEntries); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseFlat interprets buf as a v2 flat index image. On little-endian
// hosts the hopdb_unsafe build returns an index whose offset and entry
// arrays are views into buf (O(1) allocations, no copying), so buf must
// stay alive and unmodified for the index's lifetime; the default build
// decodes each array into a fresh slice. The offset tables are validated
// so a corrupt image fails here rather than faulting at query time.
func ParseFlat(buf []byte) (*FlatIndex, error) {
	if len(buf) < flatHeaderSize {
		return nil, fmt.Errorf("label: flat image truncated (%d bytes)", len(buf))
	}
	if string(buf[:4]) != flatMagic {
		if IsCompactImage(buf) {
			// The delta-coded v3 format must be decoded, never aliased,
			// so it cannot serve the zero-copy/mmap path.
			return nil, fmt.Errorf("label: %q is a compact (HDX3) image; decode it with ParseCompact (mmap is unavailable for compact files)", buf[:4])
		}
		if string(buf[:4]) == "HDIX" {
			// The first release's per-vertex stream; its reader is gone.
			return nil, fmt.Errorf("label: %q is a v1 index; v1 index files are no longer readable; rebuild with hopdb-build", buf[:4])
		}
		return nil, fmt.Errorf("label: bad flat magic %q", buf[:4])
	}
	if buf[4] != flatVersion {
		return nil, fmt.Errorf("label: unsupported flat version %d", buf[4])
	}
	flags := buf[5]
	if flags&^byte(knownFlags) != 0 {
		return nil, fmt.Errorf("label: unknown flat flags %#x", flags)
	}
	n := int64(binary.LittleEndian.Uint32(buf[8:12]))
	f := &FlatIndex{
		Directed: flags&flagDirected != 0,
		Weighted: flags&flagWeighted != 0,
		N:        int32(n),
	}
	if int64(f.N) != n {
		return nil, fmt.Errorf("label: corrupt vertex count %d", n)
	}
	size := int64(len(buf))
	pos := int64(flatHeaderSize)
	if flags&flagPerm != 0 {
		permBytes := 4 * n
		if pos+permBytes > size {
			return nil, fmt.Errorf("label: flat image truncated in perm table")
		}
		f.Perm = castInt32s(buf[pos : pos+permBytes])
		pos += permBytes
		pos = (pos + 7) &^ 7
		// Bijectivity check with a transient bitset; Inv itself is only
		// needed by View() and is computed there on demand, keeping the
		// load O(1)-allocation in the index size.
		seen := make([]uint64, (n+63)/64)
		for v, r := range f.Perm {
			if int64(r) < 0 || int64(r) >= n || seen[r>>6]&(1<<(uint(r)&63)) != 0 {
				return nil, fmt.Errorf("label: perm is not a permutation at vertex %d", v)
			}
			seen[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	readSide := func(name string) ([]int64, error) {
		offBytes := 8 * (n + 1)
		if pos+offBytes > size {
			return nil, fmt.Errorf("label: flat image truncated in %s offsets", name)
		}
		offsets := castInt64s(buf[pos : pos+offBytes])
		pos += offBytes
		if offsets[0] != 0 {
			return nil, fmt.Errorf("label: %s offsets do not start at 0", name)
		}
		prev := int64(0)
		for v := int64(1); v <= n; v++ {
			if offsets[v] < prev {
				return nil, fmt.Errorf("label: %s offsets decrease at vertex %d", name, v-1)
			}
			prev = offsets[v]
		}
		// Entry count must fit in the remaining file (both sides' entry
		// sections follow all offset tables, so this is a necessary
		// bound; the exact-size check below makes it sufficient).
		if prev > (size-pos)/8 {
			return nil, fmt.Errorf("label: %s claims %d entries beyond file size", name, prev)
		}
		return offsets, nil
	}
	var err error
	if f.OutOffsets, err = readSide("Lout"); err != nil {
		return nil, err
	}
	if f.Directed {
		if f.InOffsets, err = readSide("Lin"); err != nil {
			return nil, err
		}
	} else {
		f.InOffsets = f.OutOffsets
	}
	outCount := f.OutOffsets[n]
	inCount := int64(0)
	if f.Directed {
		inCount = f.InOffsets[n]
	}
	if size-pos != 8*(outCount+inCount) {
		return nil, fmt.Errorf("label: flat image size mismatch: %d entry bytes for %d entries",
			size-pos, outCount+inCount)
	}
	f.OutEntries = castEntries(buf[pos : pos+8*outCount])
	pos += 8 * outCount
	if f.Directed {
		f.InEntries = castEntries(buf[pos : pos+8*inCount])
	} else {
		f.InEntries = f.OutEntries
	}
	// Full label validation (pivot ordering and outranking): a
	// corrupt-but-well-framed file must fail here with a
	// clear error, not crash or mis-answer consumers that trust the
	// invariants (the merge fast path, the bit-parallel transform). One
	// sequential allocation-free scan of the payload.
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadFlatFile reads a v2 flat index with one allocation for the whole
// label payload (a single file-sized read) plus O(1) bookkeeping.
func LoadFlatFile(path string) (*FlatIndex, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseFlat(buf)
}

// decodeInt32s is the allocating little-endian decode shared by both
// cast twins (the hopdb_unsafe build reaches it only when byte order or
// alignment rules out the zero-copy view).
func decodeInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func decodeInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func decodeEntries(b []byte) []Entry {
	out := make([]Entry, len(b)/8)
	for i := range out {
		out[i].Pivot = int32(binary.LittleEndian.Uint32(b[i*8:]))
		out[i].Dist = binary.LittleEndian.Uint32(b[i*8+4:])
	}
	return out
}
