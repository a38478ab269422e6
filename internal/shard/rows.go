// Row-fetch wire codec: the scatter-gather primitive of sharded
// serving. A router answers every pair its hub cannot by merging
// Out(rank(s)) and In(rank(t)) locally; it POSTs the batch's row keys to
// each owning shard's /v1/rows.
//
// Request ("HRQ1"): magic, uint32 count, then count uint32 keys — the
// rank in the low 31 bits, high bit set for the In family.
// Response ("HRR1"): magic, uint32 count, count uint32 row lengths,
// then the rows' entries concatenated (pivot uint32, dist uint32).
// All integers little-endian.
package shard

import (
	"encoding/binary"
	"fmt"

	"repro/internal/label"
)

// ContentTypeRows is the MIME type of the row-fetch request and
// response bodies.
const ContentTypeRows = "application/x-hopdb-rows"

const (
	rowsReqMagic  = "HRQ1"
	rowsRespMagic = "HRR1"
	rowsInBit     = uint32(1) << 31
)

// RowKey names one label row: a rank and which family (Out or In).
type RowKey struct {
	Rank int32
	In   bool
}

// AppendRowsRequest appends the encoded row-fetch request for keys to
// dst and returns the extended slice.
func AppendRowsRequest(dst []byte, keys []RowKey) []byte {
	dst = append(dst, rowsReqMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		v := uint32(k.Rank)
		if k.In {
			v |= rowsInBit
		}
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// DecodeRowsRequest parses a row-fetch request body.
func DecodeRowsRequest(b []byte) ([]RowKey, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("shard: rows request too short (%d bytes)", len(b))
	}
	if string(b[:4]) != rowsReqMagic {
		return nil, fmt.Errorf("shard: bad rows request magic %q", b[:4])
	}
	count := binary.LittleEndian.Uint32(b[4:8])
	if int64(len(b)) != 8+int64(count)*4 {
		return nil, fmt.Errorf("shard: rows request length %d does not match %d keys", len(b), count)
	}
	keys := make([]RowKey, count)
	for i := range keys {
		v := binary.LittleEndian.Uint32(b[8+4*i:])
		keys[i] = RowKey{Rank: int32(v &^ rowsInBit), In: v&rowsInBit != 0}
	}
	return keys, nil
}

// AppendRowsResponse appends the encoded response carrying rows (in
// request key order) to dst and returns the extended slice, growing dst
// at most once.
func AppendRowsResponse(dst []byte, rows [][]label.Entry) []byte {
	size := 8 + 4*len(rows)
	for _, row := range rows {
		size += 8 * len(row)
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst = append(dst, rowsRespMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	for _, row := range rows {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row)))
	}
	for _, row := range rows {
		dst = label.AppendEntries(dst, row)
	}
	return dst
}

// DecodeRowsResponse parses a row-fetch response body. The returned
// rows alias b (label.EntriesView), so b must stay unmodified while
// they are in use.
func DecodeRowsResponse(b []byte) ([][]label.Entry, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("shard: rows response too short (%d bytes)", len(b))
	}
	if string(b[:4]) != rowsRespMagic {
		return nil, fmt.Errorf("shard: bad rows response magic %q", b[:4])
	}
	count := int64(binary.LittleEndian.Uint32(b[4:8]))
	if int64(len(b)) < 8+count*4 {
		return nil, fmt.Errorf("shard: rows response length %d too short for %d row lengths", len(b), count)
	}
	pos := 8 + count*4
	var total int64
	for i := int64(8); i < pos; i += 4 {
		total += int64(binary.LittleEndian.Uint32(b[i:]))
	}
	if int64(len(b)) != pos+total*8 {
		return nil, fmt.Errorf("shard: rows response length %d does not match %d entries", len(b), total)
	}
	flat := label.EntriesView(b[pos:])
	rows := make([][]label.Entry, count)
	var off int64
	for i := range rows {
		n := int64(binary.LittleEndian.Uint32(b[8+4*i:]))
		rows[i] = flat[off : off+n : off+n]
		off += n
	}
	return rows, nil
}
