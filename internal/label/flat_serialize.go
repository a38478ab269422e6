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
//	 5  flags u8: bit0 directed, bit1 weighted, bit2 perm present,
//	    bit3 range image, bit4 hub tier (range images only)
//	 6  reserved u16 (zero)
//	 8  n u32
//	12  reserved u32 (zero)
//	16  lo u32, hi u32 if flags&8: the owned rank range [lo, hi)
//	 .  perm u32[n] if flags&4, zero-padded to an 8-byte boundary
//	 .  out offsets i64[n+1]
//	 .  in offsets i64[n+1] if directed
//	 .  out entries (pivot u32, dist u32)[outCount]
//	 .  in entries if directed
//
// A range image is one shard of a rank-partitioned index: the layout is
// unchanged, but every row outside [lo, hi) is empty, so the image is a
// valid FlatIndex whose owned rows equal the whole index's. ParseFlat
// serves whole images only and ParseFlatRange range images only, so a
// shard can never answer as if it held the whole index.
//
// The perm table and the label payload (offsets + entries) are the
// FlatIndex arrays verbatim, so on a little-endian host the parse serves
// them in place: the returned index's arrays are views into the input
// buffer (flat_cast.go), with no copy and no per-vertex allocation. Only
// a big-endian host or a misaligned buffer takes the decode fallback,
// which copies each section into one fresh slice.
const (
	flatMagic      = "HDX2"
	flatVersion    = 2
	flatHeaderSize = 16
	rangeExtSize   = 8

	flagDirected = 1 << 0
	flagWeighted = 1 << 1
	flagPerm     = 1 << 2
	knownFlags   = flagDirected | flagWeighted | flagPerm
	// The range flags exist in v2 images only, never in HDX3.
	flagRange = 1 << 3
	flagHub   = 1 << 4
)

// RankRange is the owned rank interval [Lo, Hi) of a range image; Hub
// marks the replicated top-rank tier, which always starts at rank 0.
type RankRange struct {
	Lo, Hi int32
	Hub    bool
}

// FlatHeader is everything a v2 image's preamble records besides the
// offset tables. Range is nil for a whole index.
type FlatHeader struct {
	N        int32
	Directed bool
	Weighted bool
	Perm     []int32
	Range    *RankRange
}

// Write serializes the flat index in the v2 format.
func (f *FlatIndex) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := FlatHeader{N: f.N, Directed: f.Directed, Weighted: f.Weighted, Perm: f.Perm}
	if err := WriteFlatPreamble(bw, h, f.OutOffsets, f.InOffsets); err != nil {
		return err
	}
	if err := WriteEntries(bw, f.OutEntries); err != nil {
		return err
	}
	if f.Directed {
		if err := WriteEntries(bw, f.InEntries); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFlatPreamble writes a v2 image's header, perm table and offset
// tables (inOffsets only when directed, each N+1 long). The caller then
// writes the out entries and, when directed, the in entries with
// WriteEntries — from memory (FlatIndex.Write) or streamed from record
// files (the shard builder). w should be buffered.
func WriteFlatPreamble(w io.Writer, h FlatHeader, outOffsets, inOffsets []int64) error {
	hdr := make([]byte, flatHeaderSize, flatHeaderSize+rangeExtSize)
	copy(hdr[:4], flatMagic)
	hdr[4] = flatVersion
	flags := byte(0)
	if h.Directed {
		flags |= flagDirected
	}
	if h.Weighted {
		flags |= flagWeighted
	}
	if h.Perm != nil {
		flags |= flagPerm
	}
	if r := h.Range; r != nil {
		flags |= flagRange
		if r.Hub {
			flags |= flagHub
		}
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.Lo))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.Hi))
	}
	hdr[5] = flags
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(h.N))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var b8 [8]byte
	if h.Perm != nil {
		if raw, ok := int32Bytes(h.Perm); ok {
			// In-memory layout matches the format: emit the section in
			// one write (bufio passes large writes straight through).
			if _, err := w.Write(raw); err != nil {
				return err
			}
		} else {
			for _, p := range h.Perm {
				binary.LittleEndian.PutUint32(b8[:4], uint32(p))
				if _, err := w.Write(b8[:4]); err != nil {
					return err
				}
			}
		}
		if len(h.Perm)%2 == 1 {
			var pad [4]byte
			if _, err := w.Write(pad[:]); err != nil {
				return err
			}
		}
	}
	writeOffsets := func(offsets []int64) error {
		if raw, ok := int64Bytes(offsets); ok {
			_, err := w.Write(raw)
			return err
		}
		for _, o := range offsets {
			binary.LittleEndian.PutUint64(b8[:], uint64(o))
			if _, err := w.Write(b8[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeOffsets(outOffsets); err != nil {
		return err
	}
	if h.Directed {
		return writeOffsets(inOffsets)
	}
	return nil
}

// WriteEntries appends label entries to a v2 image's entry section.
func WriteEntries(w io.Writer, entries []Entry) error {
	if raw, ok := entryBytes(entries); ok {
		_, err := w.Write(raw)
		return err
	}
	var b8 [8]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint32(b8[:4], uint32(e.Pivot))
		binary.LittleEndian.PutUint32(b8[4:], e.Dist)
		if _, err := w.Write(b8[:]); err != nil {
			return err
		}
	}
	return nil
}

// AppendEntries appends entries to dst in the v2 entry encoding (pivot
// uint32, dist uint32, little-endian) and returns the extended slice.
func AppendEntries(dst []byte, entries []Entry) []byte {
	if raw, ok := entryBytes(entries); ok {
		return append(dst, raw...)
	}
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Pivot))
		dst = binary.LittleEndian.AppendUint32(dst, e.Dist)
	}
	return dst
}

// EntriesView interprets b (a multiple of 8 bytes) as entries in the v2
// encoding. The result aliases b where the host layout and b's
// alignment allow, else it is a decoded copy; either way b must stay
// unmodified while the entries are in use.
func EntriesView(b []byte) []Entry { return castEntries(b) }

// ParseFlat interprets buf as a whole v2 flat index image. The returned
// index aliases buf: its perm, offset and entry arrays are views into it
// (O(1) allocations, nothing copied), so buf must stay alive and
// unmodified for as long as the index is used. When buf is a read-only
// mapping (MmapFlat) the index therefore serves from the page cache with
// O(1) heap. A section that is misaligned in buf, or any section on a
// big-endian host, is decoded into a fresh slice instead. The preamble
// (ParseFlatPreamble) and every label are validated, so a corrupt image
// fails here rather than faulting at query time. A range (shard) image
// is refused: its unowned rows are empty and would answer Infinity.
func ParseFlat(buf []byte) (*FlatIndex, error) {
	f, _, err := parseFlat(buf, false)
	return f, err
}

// ParseFlatRange interprets buf as a range image, one shard of a
// rank-partitioned index, with ParseFlat's aliasing and validation. It
// additionally checks that every row outside the owned range is empty,
// and refuses a whole-index image.
func ParseFlatRange(buf []byte) (*FlatIndex, RankRange, error) {
	return parseFlat(buf, true)
}

func parseFlat(buf []byte, wantRange bool) (*FlatIndex, RankRange, error) {
	var rr RankRange
	size := int64(len(buf))
	h, outOffsets, inOffsets, err := ParseFlatPreamble(size, func(off, n int64) ([]byte, error) {
		return buf[off : off+n : off+n], nil
	}, wantRange)
	if err != nil {
		return nil, rr, err
	}
	if h.Range != nil {
		rr = *h.Range
	}
	f := &FlatIndex{
		Directed:   h.Directed,
		Weighted:   h.Weighted,
		N:          h.N,
		Perm:       h.Perm,
		OutOffsets: outOffsets,
		InOffsets:  inOffsets,
	}
	// The entry sections fill the rest of the image: out, then in.
	outEnd := size
	if f.Directed {
		outEnd -= 8 * inOffsets[f.N]
		f.InEntries = castEntries(buf[outEnd:])
	}
	f.OutEntries = castEntries(buf[outEnd-8*outOffsets[f.N] : outEnd])
	if !f.Directed {
		f.InEntries = f.OutEntries
	}
	// Full label validation (pivot ordering and outranking): a
	// corrupt-but-well-framed file must fail here with a
	// clear error, not crash or mis-answer consumers that trust the
	// invariants (the merge fast path, the bit-parallel transform). One
	// sequential allocation-free scan of the payload.
	if err := f.Validate(); err != nil {
		return nil, rr, err
	}
	return f, rr, nil
}

// ParseFlatPreamble is WriteFlatPreamble's reader twin: it parses and
// validates a v2 image's header, perm table and offset tables, and
// checks that the entry sections exactly fill the rest of the image, so
// the out entries start at size - 8*(outCount+inCount). size is the
// whole image's length and read returns its bytes [off, off+n). Every
// range is checked against size before it is read, header first, so a
// reader over an untrusted file allocates nothing the file cannot hold.
// The returned tables alias what read returned; inOffsets is outOffsets
// when the index is undirected. wantRange selects range (shard) images
// over whole ones; the other kind is refused by name, as are the HDX3,
// v1, HSH1 and HDDX formats. Heap (ParseFlat), mmap (MmapFlat), shard
// (ParseFlatRange) and disk-resident opens all validate through here.
func ParseFlatPreamble(size int64, read func(off, n int64) ([]byte, error), wantRange bool) (h FlatHeader, outOffsets, inOffsets []int64, err error) {
	fail := func(format string, args ...any) (FlatHeader, []int64, []int64, error) {
		return FlatHeader{}, nil, nil, fmt.Errorf(format, args...)
	}
	if size < flatHeaderSize {
		return fail("label: flat image truncated (%d bytes)", size)
	}
	hdr, err := read(0, flatHeaderSize)
	if err != nil {
		return fail("label: reading flat header: %w", err)
	}
	if string(hdr[:4]) != flatMagic {
		if IsCompactImage(hdr) {
			// The delta-coded v3 format must be decoded, never aliased,
			// so it cannot serve the zero-copy, mmap or disk paths.
			return fail("label: %q is a compact (HDX3) image; decode it with ParseCompact (mmap and disk serving need the v2 image)", hdr[:4])
		}
		switch string(hdr[:4]) {
		case "HDIX":
			// The first release's per-vertex stream; its reader is gone.
			return fail("label: %q is a v1 index; v1 index files are no longer readable; rebuild with hopdb-build", hdr[:4])
		case "HSH1":
			// The first shard format; shards are range images now.
			return fail("label: %q is an old shard file; HSH1 shard files are no longer readable; rebuild with hopdb-build -shards", hdr[:4])
		case "HDDX":
			// The retired disk-query format; disk opens serve v2 images.
			return fail("label: %q is an old disk index; HDDX files are no longer readable; serve the index hopdb-build -o writes", hdr[:4])
		}
		return fail("label: bad flat magic %q", hdr[:4])
	}
	if hdr[4] != flatVersion {
		return fail("label: unsupported flat version %d", hdr[4])
	}
	flags := hdr[5]
	if flags&^byte(knownFlags|flagRange|flagHub) != 0 {
		return fail("label: unknown flat flags %#x", flags)
	}
	if binary.LittleEndian.Uint16(hdr[6:8]) != 0 || binary.LittleEndian.Uint32(hdr[12:16]) != 0 {
		return fail("label: nonzero reserved flat header bytes")
	}
	isRange := flags&flagRange != 0
	if isRange && !wantRange {
		return fail("label: this is a shard (rank-range) image, not a whole index; open it with hopdb.OpenShard or hopdb-serve -shard")
	}
	if !isRange && wantRange {
		return fail("label: not a shard image (a whole v2 index); open it with hopdb.Open or hopdb-serve -idx")
	}
	if flags&flagHub != 0 && !isRange {
		return fail("label: hub flag on a whole-index image")
	}
	n := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	h = FlatHeader{
		N:        int32(n),
		Directed: flags&flagDirected != 0,
		Weighted: flags&flagWeighted != 0,
	}
	if int64(h.N) != n {
		return fail("label: corrupt vertex count %d", n)
	}
	pos := int64(flatHeaderSize)
	if isRange {
		if size < pos+rangeExtSize {
			return fail("label: flat image truncated in rank range")
		}
		ext, err := read(pos, rangeExtSize)
		if err != nil {
			return fail("label: reading rank range: %w", err)
		}
		lo := int64(binary.LittleEndian.Uint32(ext))
		hi := int64(binary.LittleEndian.Uint32(ext[4:]))
		pos += rangeExtSize
		if lo > hi || hi > n {
			return fail("label: rank range [%d,%d) outside [0,%d)", lo, hi, n)
		}
		h.Range = &RankRange{Lo: int32(lo), Hi: int32(hi), Hub: flags&flagHub != 0}
		if h.Range.Hub && lo != 0 {
			return fail("label: hub range must start at rank 0, got %d", lo)
		}
	}
	if flags&flagPerm != 0 {
		permBytes := 4 * n
		if pos+permBytes > size {
			return fail("label: flat image truncated in perm table")
		}
		raw, err := read(pos, permBytes)
		if err != nil {
			return fail("label: reading perm table: %w", err)
		}
		h.Perm = castInt32s(raw)
		pos += permBytes
		pos = (pos + 7) &^ 7
		// Bijectivity check with a transient bitset; Inv itself is only
		// needed by View() and is computed there on demand, keeping the
		// load O(1)-allocation in the index size.
		seen := make([]uint64, (n+63)/64)
		for v, r := range h.Perm {
			if int64(r) < 0 || int64(r) >= n || seen[r>>6]&(1<<(uint(r)&63)) != 0 {
				return fail("label: perm is not a permutation at vertex %d", v)
			}
			seen[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	readSide := func(name string) ([]int64, error) {
		offBytes := 8 * (n + 1)
		if pos+offBytes > size {
			return nil, fmt.Errorf("label: flat image truncated in %s offsets", name)
		}
		raw, err := read(pos, offBytes)
		if err != nil {
			return nil, fmt.Errorf("label: reading %s offsets: %w", name, err)
		}
		offsets := castInt64s(raw)
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
		// Offsets are monotone from 0, so these two pins empty every
		// row outside the owned range.
		if r := h.Range; r != nil && (offsets[r.Lo] != 0 || offsets[r.Hi] != prev) {
			return nil, fmt.Errorf("label: %s has rows outside the owned range [%d,%d)", name, r.Lo, r.Hi)
		}
		return offsets, nil
	}
	if outOffsets, err = readSide("Lout"); err != nil {
		return FlatHeader{}, nil, nil, err
	}
	inOffsets = outOffsets
	entries := outOffsets[n]
	if h.Directed {
		if inOffsets, err = readSide("Lin"); err != nil {
			return FlatHeader{}, nil, nil, err
		}
		entries += inOffsets[n]
	}
	if size-pos != 8*entries {
		return fail("label: flat image size mismatch: %d entry bytes for %d entries", size-pos, entries)
	}
	return h, outOffsets, inOffsets, nil
}

// LoadFlatFile reads a v2 flat index into one file-sized heap buffer and
// serves it in place (ParseFlat): the buffer is the index's only
// label-sized allocation.
func LoadFlatFile(path string) (*FlatIndex, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseFlat(buf)
}

// decodeInt32s, decodeInt64s and decodeEntries are the allocating
// little-endian decode behind the casts in flat_cast.go. They run only
// when the in-place view is ruled out: on a big-endian host, or for a
// section that is misaligned in its buffer.
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
