package wire

import (
	"bytes"
	"testing"
)

func TestBatchRequestRoundTrip(t *testing.T) {
	cases := [][]QueryPair{
		nil,
		{},
		{{S: 0, T: 0}},
		{{S: 1, T: 2}, {S: -1, T: 1 << 30}, {S: 7, T: 7}},
	}
	for _, pairs := range cases {
		b := AppendBatchRequest(nil, pairs)
		got, err := DecodeBatchRequest(nil, b)
		if err != nil {
			t.Fatalf("DecodeBatchRequest: %v", err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("round trip: got %d pairs, want %d", len(got), len(pairs))
		}
		for i := range pairs {
			if got[i] != pairs[i] {
				t.Fatalf("pair %d = %+v, want %+v", i, got[i], pairs[i])
			}
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	dists := []uint32{0, 3, Infinity, 1 << 31}
	b := AppendBatchResponse(nil, dists)
	got, err := DecodeBatchResponse(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(dists) {
		t.Fatalf("got %d results, want %d", len(got), len(dists))
	}
	for i := range dists {
		if got[i] != dists[i] {
			t.Fatalf("result %d = %d, want %d", i, got[i], dists[i])
		}
	}
}

// TestDecodeReuse checks the Into-style buffer reuse: a large enough
// destination is recycled, not reallocated.
func TestDecodeReuse(t *testing.T) {
	b := AppendBatchRequest(nil, []QueryPair{{1, 2}, {3, 4}})
	dst := make([]QueryPair, 10)
	got, err := DecodeBatchRequest(dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Error("DecodeBatchRequest reallocated despite sufficient capacity")
	}
	rb := AppendBatchResponse(nil, []uint32{5, 6, 7})
	rdst := make([]uint32, 8)
	rgot, err := DecodeBatchResponse(rdst, rb)
	if err != nil {
		t.Fatal(err)
	}
	if &rgot[0] != &rdst[0] {
		t.Error("DecodeBatchResponse reallocated despite sufficient capacity")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	good := AppendBatchRequest(nil, []QueryPair{{1, 2}, {3, 4}})
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:4] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"response magic", func(b []byte) []byte { copy(b, "HBR1"); return b }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }},
		{"huge count", func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
	}
	for _, c := range cases {
		b := c.mutate(append([]byte(nil), good...))
		if _, err := DecodeBatchRequest(nil, b); err == nil {
			t.Errorf("%s: corrupt request accepted", c.name)
		}
	}
	if _, err := DecodeBatchResponse(nil, good); err == nil {
		t.Error("request image accepted as response")
	}
}

// FuzzDecodeBatchRequest checks the decoder never panics or allocates
// beyond the input size on arbitrary bytes.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBatchRequest(nil, []QueryPair{{1, 2}}))
	f.Add(AppendBatchRequest(nil, []QueryPair{{-5, 9}, {0, 0}, {3, 1}}))
	f.Add([]byte("HBQ1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, b []byte) {
		pairs, err := DecodeBatchRequest(nil, b)
		if err != nil {
			return
		}
		// A successful decode must round-trip byte-identically.
		if !bytes.Equal(AppendBatchRequest(nil, pairs), b) {
			t.Fatalf("accepted request does not round-trip: %x", b)
		}
	})
}
