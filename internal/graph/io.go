package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Edge-list text format: one edge per line, "u v" or "u v w", separated by
// spaces or tabs. Lines starting with '#' or '%' are comments. Vertex ids
// are non-negative integers; they need not be dense (ReadEdgeList keeps
// them as given, so callers generating sparse id spaces should remap).

// ReadEdgeList parses a text edge list into a Graph.
func ReadEdgeList(r io.Reader, directed, weighted bool) (*Graph, error) {
	b := NewBuilder(directed, weighted)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := parseID(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %v", lineNo, err)
		}
		v, err := parseID(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target: %v", lineNo, err)
		}
		w := int64(1)
		if weighted {
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: weighted graph needs 3 fields", lineNo)
			}
			w, err = strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
		}
		b.AddEdge(u, v, int32(w))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// parseID parses a vertex id. Ids are checked in int64 so that one whose
// vertex count would overflow int32 (2^31-1 and up) is refused here,
// before the Builder sizes anything by it.
func parseID(f string) (int32, error) {
	id, err := strconv.ParseInt(f, 10, 64)
	if err != nil {
		return 0, err
	}
	if id < 0 || id >= math.MaxInt32 {
		return 0, fmt.Errorf("vertex id %d outside [0, %d)", id, math.MaxInt32)
	}
	return int32(id), nil
}

// WriteEdgeList writes g in the text edge-list format. Undirected edges
// are written once with u <= v.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# |V|=%d |E|=%d directed=%v weighted=%v\n", g.N(), g.EdgeCount(), g.Directed(), g.Weighted())
	for u := int32(0); u < g.N(); u++ {
		adj := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		for i, v := range adj {
			if !g.Directed() && u > v {
				continue
			}
			if g.Weighted() {
				fmt.Fprintf(bw, "%d %d %d\n", u, v, ws[i])
			} else {
				fmt.Fprintf(bw, "%d %d\n", u, v)
			}
		}
	}
	return bw.Flush()
}

// LoadEdgeListFile reads a text edge-list file from disk.
func LoadEdgeListFile(path string, directed, weighted bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, directed, weighted)
}

// SaveEdgeListFile writes g to a text edge-list file.
func SaveEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
