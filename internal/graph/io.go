package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in the standard whitespace-separated
// edge-list format: a header line "n m", then one "u v" line per edge
// with u < v. The format round-trips through ReadEdgeList.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.n, g.m); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ErrVertexCount rejects an edge-list header whose vertex count does not
// fit the int32 vertex IDs of the CSR, before anything is sized from it.
// It bounds only representability: a header with a large but
// representable n still allocates O(n) when built, and bounding that
// memory is left to job admission control, not to the parser.
var ErrVertexCount = errors.New("graph: header vertex count exceeds int32 vertex IDs")

// ReadEdgeList parses the edge-list format written by WriteEdgeList.
// Lines starting with '#' and blank lines are ignored; the first
// non-comment line must be the "n m" header. Duplicate edges, self
// loops, out-of-range endpoints, and a header whose m disagrees with
// the edge lines are rejected with the offending line number; so is a
// header n above math.MaxInt32 (ErrVertexCount).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	var b *Builder
	headerLine, wantEdges, edges := 0, -1, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want two integers, got %q", lineNo, line)
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		c, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if b == nil {
			if a < 0 || c < 0 {
				return nil, fmt.Errorf("graph: line %d: negative header values", lineNo)
			}
			if a > math.MaxInt32 {
				return nil, fmt.Errorf("%w: line %d has n = %d", ErrVertexCount, lineNo, a)
			}
			b = NewBuilder(a)
			headerLine, wantEdges = lineNo, c
			continue
		}
		if err := b.AddEdge(a, c); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if wantEdges >= 0 && edges != wantEdges {
		return nil, fmt.Errorf("graph: line %d: header claims %d edges, found %d", headerLine, wantEdges, edges)
	}
	return b.Build(), nil
}
