package shard_test

// Fuzz targets for the shard package's trust-boundary parsers: shard
// files (v2 flat range images, also fuzzed as raw images by
// FuzzParseFlat in internal/label) and the /v1/rows codec. The contract
// under fuzzing: arbitrary bytes either decode into a result that
// satisfies the format's invariants, or fail with a clean error — never
// a panic, and never an allocation driven by a corrupt count rather
// than the input size. Run continuously with
//
//	go test -fuzz FuzzShardParse ./internal/shard
//	go test -fuzz FuzzDecodeRows ./internal/shard
//
// plain `go test` replays the seed corpus.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	hopdb "repro"
	"repro/internal/gen"
	"repro/internal/label"
	"repro/internal/shard"
)

// FuzzShardParse fuzzes the shard reader, seeded from the hub and a
// leaf of a real directed BuildShards cut plus the truncation, magic
// and header damage classes. An accepted shard has a rank range inside
// its vertex count, serves exactly the rows it owns, and holds no more
// perm and label bytes than the input.
func FuzzShardParse(f *testing.F) {
	g, err := gen.PowerLaw(gen.PowerLawParams{N: 40, Density: 3, Alpha: 2.2, Directed: true, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	m, _, err := hopdb.BuildShards(g, hopdb.Options{}, hopdb.ShardConfig{Shards: 2, Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{m.HubFile, m.Shards[0].File} {
		good, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[:len(good)/2])                               // truncated payload
		f.Add(good[:len(good)-3])                               // ragged tail
		f.Add(good[:20])                                        // truncated rank range
		f.Add(append(append([]byte(nil), good...), 0, 0, 0, 0)) // trailing garbage
		for _, damage := range []func(b []byte){
			func(b []byte) { b[0] = 'X' },                       // bad magic
			func(b []byte) { b[4] = 9 },                         // bad version
			func(b []byte) { b[6] = 1 },                         // reserved header bytes
			func(b []byte) { copy(b[8:], "\xff\xff\xff\x7f") },  // huge vertex count
			func(b []byte) { copy(b[20:], "\x00\x00\x00\x80") }, // negative hi
			func(b []byte) { b[len(b)-8] = 0xfe },               // corrupt entry
		} {
			b := append([]byte(nil), good...)
			damage(b)
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := shard.Parse(b)
		if err != nil {
			return
		}
		n := s.NumVertices
		if s.Lo < 0 || s.Lo > s.Hi || s.Hi > n || (s.Hub && s.Lo != 0) {
			t.Fatalf("accepted range [%d,%d) hub=%v of %d vertices", s.Lo, s.Hi, s.Hub, n)
		}
		if int32(len(s.Perm)) != n {
			t.Fatalf("perm has %d entries, want %d", len(s.Perm), n)
		}
		if int64(len(s.Perm))*4+s.SizeBytes() > int64(len(b)) {
			t.Fatalf("%d perm entries and %d label bytes from %d input bytes", len(s.Perm), s.SizeBytes(), len(b))
		}
		for _, r := range []int32{-1, s.Lo - 1, s.Lo, (s.Lo + s.Hi) / 2, s.Hi - 1, s.Hi, n} {
			_, outOK := s.OutRowRanked(r)
			_, inOK := s.InRowRanked(r)
			if outOK != s.Owns(r) || inOK != s.Owns(r) {
				t.Fatalf("rank %d served as owned=%v/%v by range [%d,%d)", r, outOK, inOK, s.Lo, s.Hi)
			}
		}
	})
}

// FuzzDecodeRows fuzzes both directions of the row-fetch codec, seeded
// from round-trip bodies. An accepted request holds exactly its declared
// key count; an accepted response holds exactly its declared row count,
// with every entry backed by 8 input bytes, and re-encodes to the input
// byte for byte.
func FuzzDecodeRows(f *testing.F) {
	req := shard.AppendRowsRequest(nil, []shard.RowKey{{Rank: 0}, {Rank: 12, In: true}, {Rank: 1<<30 + 5}})
	resp := shard.AppendRowsResponse(nil, [][]label.Entry{
		{{Pivot: 0, Dist: 1}, {Pivot: 3, Dist: 7}},
		nil,
		{{Pivot: 5, Dist: 2}},
	})
	for _, good := range [][]byte{req, resp} {
		f.Add(good)
		f.Add(good[:6])
		f.Add(good[:len(good)-2])
		f.Add(append([]byte("XXXX"), good[4:]...))
		huge := append([]byte(nil), good...)
		copy(huge[4:], "\xff\xff\xff\xff") // count far beyond the body
		f.Add(huge)
	}
	f.Add(shard.AppendRowsRequest(nil, nil))
	f.Add(shard.AppendRowsResponse(nil, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		if keys, err := shard.DecodeRowsRequest(b); err == nil {
			if want := (len(b) - 8) / 4; len(keys) != want {
				t.Fatalf("request decoded %d keys from a %d-key body", len(keys), want)
			}
		}
		rows, err := shard.DecodeRowsResponse(b)
		if err != nil {
			return
		}
		count := int64(binary.LittleEndian.Uint32(b[4:8]))
		if int64(len(rows)) != count {
			t.Fatalf("response decoded %d rows, header declares %d", len(rows), count)
		}
		var entries int64
		for _, row := range rows {
			entries += int64(len(row))
		}
		if 8+4*count+8*entries != int64(len(b)) {
			t.Fatalf("response decoded %d rows / %d entries from %d bytes", count, entries, len(b))
		}
		if again := shard.AppendRowsResponse(nil, rows); !bytes.Equal(again, b) {
			t.Fatalf("accepted response re-encodes to %x, input was %x", again, b)
		}
	})
}
