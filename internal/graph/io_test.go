package graph

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestReadEdgeListRejectsBadIDs checks that the reader refuses ids outside
// [0, 2^31-1) with the offending line number, before the Builder sizes
// anything by them.
func TestReadEdgeListRejectsBadIDs(t *testing.T) {
	for _, c := range []struct {
		name, in, want string
	}{
		{"source id 2^31-1", "2147483647 0\n", "line 1: bad source"},
		{"target id 2^31-1", "0 1\n1 2147483647\n", "line 2: bad target"},
		{"id beyond int32", "# header\n0 1\n4294967296 1\n", "line 3: bad source"},
		{"negative id", "0 1\n% note\n\n-1 2\n", "line 4: bad source"},
	} {
		g, err := ReadEdgeList(strings.NewReader(c.in), false, false)
		if err == nil {
			t.Errorf("%s: accepted as %v", c.name, g)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to name %q", c.name, err, c.want)
		}
	}
}

// FuzzReadEdgeList checks that the edge-list reader never panics and that
// every graph it accepts survives WriteEdgeList -> ReadEdgeList with an
// identical CSR.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"2147483647 0\n",
		"0 1 7\n1 0 3\n0 1 5\n2 1 4\n",
		"0 1 0\n",
		"0 1 16777217\n",
		"# |V|=3\n% konect\n\n0 1\n1 2 9\n2 2\n",
		"0\t1\r\n3 2\r\n",
	} {
		f.Add([]byte(seed), false, true)
		f.Add([]byte(seed), true, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, directed, weighted bool) {
		if hugeID(data) {
			t.Skip("valid id sizes the CSR beyond a fuzz run's memory")
		}
		g, err := ReadEdgeList(bytes.NewReader(data), directed, weighted)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf, directed, weighted)
		if err != nil {
			t.Fatalf("re-reading the written graph: %v\n%s", err, buf.Bytes())
		}
		if err := sameCSR(g2, g); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}

// hugeID reports whether an edge line names a valid id of 2^16 or more:
// such an input is legal but makes the reader allocate O(id) offsets.
// Ids of 2^31-1 and up are refused before any allocation and stay fuzzed.
func hugeID(data []byte) bool {
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0][0] == '#' || fields[0][0] == '%' {
			continue
		}
		for _, f := range fields[:min(2, len(fields))] {
			if id, err := strconv.ParseInt(f, 10, 64); err == nil && id >= 1<<16 && id < math.MaxInt32 {
				return true
			}
		}
	}
	return false
}
