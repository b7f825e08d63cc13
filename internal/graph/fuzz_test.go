package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// encodeRaw writes a binary CSR payload from raw arrays, valid or not.
func encodeRaw(n, m int, offs, adj []int32) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(n))
	out = binary.LittleEndian.AppendUint64(out, uint64(m))
	for _, x := range append(slices.Clone(offs), adj...) {
		out = binary.LittleEndian.AppendUint32(out, uint32(x))
	}
	return out
}

// asymmetricPayload lists edge {0,1} in row 0 and edge {2,0} in row 2:
// n=3, m=1, offs [0,1,1,2], adj [1,0]. Its offsets and rows are each
// well formed; only the symmetry check rejects it.
var asymmetricPayload = encodeRaw(3, 1, []int32{0, 1, 1, 2}, []int32{1, 0})

// petersen is the fuzz corpora's golden graph: 10 vertices, 15 edges,
// every vertex of degree 3.
func petersen() *Graph {
	b := NewBuilder(10)
	for i := 0; i < 5; i++ {
		for _, e := range [][2]int{{i, (i + 1) % 5}, {i, i + 5}, {i + 5, (i+2)%5 + 5}} {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// checkCSR fails the test unless g's arrays hold every invariant a Graph
// promises: offs starts at 0, is monotone and ends at 2m; rows are in
// range, strictly ascending, free of self-loops and symmetric; degMax is
// the largest row. Symmetry is checked by binary search, independently
// of the decoder's cursor walk.
func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.offs) != g.n+1 || g.offs[0] != 0 || int(g.offs[g.n]) != 2*g.m || len(g.adj) != 2*g.m {
		t.Fatalf("n=%d m=%d: %d offsets from %v to %v over %d adjacency entries",
			g.n, g.m, len(g.offs), g.offs[0], g.offs[len(g.offs)-1], len(g.adj))
	}
	for v := 0; v < g.n; v++ {
		if g.offs[v+1] < g.offs[v] {
			t.Fatalf("offsets fall at vertex %d", v)
		}
	}
	degMax := 0
	for v := 0; v < g.n; v++ {
		row := g.adj[g.offs[v]:g.offs[v+1]]
		for k, w := range row {
			if w < 0 || int(w) >= g.n || int(w) == v {
				t.Fatalf("vertex %d lists neighbor %d (n=%d)", v, w, g.n)
			}
			if k > 0 && row[k-1] >= w {
				t.Fatalf("row of vertex %d is not strictly ascending: %v", v, row)
			}
			if _, ok := slices.BinarySearch(g.adj[g.offs[w]:g.offs[w+1]], int32(v)); !ok {
				t.Fatalf("vertex %d lists %d but not the reverse", v, w)
			}
		}
		degMax = max(degMax, len(row))
	}
	if degMax != g.degMax {
		t.Fatalf("degMax %d, largest row %d", g.degMax, degMax)
	}
}

// checkRoundTrips requires g to come back bit-identical through both
// codecs, and each codec's second encoding to equal its first.
func checkRoundTrips(t *testing.T, g *Graph) {
	t.Helper()
	same := func(h *Graph) bool {
		return h.n == g.n && h.m == g.m && h.degMax == g.degMax &&
			slices.Equal(h.offs, g.offs) && slices.Equal(h.adj, g.adj)
	}
	var bin, bin2 bytes.Buffer
	if err := g.EncodeBinary(&bin); err != nil {
		t.Fatal(err)
	}
	h, err := DecodeBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("binary round trip: %v", err)
	}
	if err := h.EncodeBinary(&bin2); err != nil {
		t.Fatal(err)
	}
	if !same(h) || !bytes.Equal(bin.Bytes(), bin2.Bytes()) {
		t.Fatal("binary round trip changed the graph")
	}
	var txt, txt2 bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	h, err = ReadEdgeList(bytes.NewReader(txt.Bytes()))
	if err != nil {
		t.Fatalf("edge-list round trip: %v", err)
	}
	if err := h.WriteEdgeList(&txt2); err != nil {
		t.Fatal(err)
	}
	if !same(h) || !bytes.Equal(txt.Bytes(), txt2.Bytes()) {
		t.Fatal("edge-list round trip changed the graph")
	}
}

func TestDecodeBinaryRejectsAsymmetric(t *testing.T) {
	if g, err := DecodeBinary(bytes.NewReader(asymmetricPayload)); err == nil {
		t.Fatalf("asymmetric payload decoded: HasEdge(0,1)=%v HasEdge(1,0)=%v PortOf(1,0)=%d",
			g.HasEdge(0, 1), g.HasEdge(1, 0), g.PortOf(1, 0))
	}
	// Lower entries nobody matched: rows 1 and 2 list 0, row 0 is empty.
	leftover := encodeRaw(3, 1, []int32{0, 0, 1, 2}, []int32{0, 0})
	if _, err := DecodeBinary(bytes.NewReader(leftover)); err == nil {
		t.Fatal("rows listing an unmatched lower neighbor decoded")
	}
	// The symmetric completion of the same shape decodes.
	fixed := encodeRaw(3, 2, []int32{0, 1, 2, 4}, []int32{2, 2, 0, 1})
	g, err := DecodeBinary(bytes.NewReader(fixed))
	if err != nil {
		t.Fatalf("symmetric payload rejected: %v", err)
	}
	checkCSR(t, g)
}

// FuzzDecodeBinary: no input panics, and every accepted payload is a
// sound graph whose encoding is exactly the bytes it was decoded from.
func FuzzDecodeBinary(f *testing.F) {
	var golden bytes.Buffer
	if err := petersen().EncodeBinary(&golden); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add(asymmetricPayload)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkCSR(t, g)
		var enc bytes.Buffer
		if err := g.EncodeBinary(&enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), data[:g.EncodedSize()]) {
			t.Fatal("re-encoding differs from the decoded payload")
		}
		checkRoundTrips(t, g)
	})
}

// fuzzMaxHeaderN bounds the header vertex count FuzzReadEdgeList parses.
// ReadEdgeList allocates O(n) for any representable header n by design
// (bounding that memory is left to job admission control, see
// ErrVertexCount), so larger headers would only measure the allocator.
const fuzzMaxHeaderN = 1 << 16

// headerN returns the vertex count of data's header line as ReadEdgeList
// finds it (the first non-blank, non-comment line), or -1.
func headerN(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) > 0 {
			if n, err := strconv.Atoi(fields[0]); err == nil {
				return n
			}
		}
		return -1
	}
	return -1
}

// FuzzReadEdgeList: no input panics, and every accepted edge list is a
// sound graph that round-trips bit-identically through both codecs.
func FuzzReadEdgeList(f *testing.F) {
	var golden bytes.Buffer
	if err := petersen().WriteEdgeList(&golden); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add(asymmetricPayload)
	f.Add([]byte("# comment\n\n3 2\n0 1\n  2 1  \n"))
	f.Add([]byte("3 2\n0 1\n1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if headerN(data) > fuzzMaxHeaderN {
			t.Skip("header vertex count above the fuzz memory bound")
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkCSR(t, g)
		checkRoundTrips(t, g)
	})
}

// FuzzBuilderSortedRunDedup feeds arbitrary byte streams as edge
// sequences into the bucketed sorted-run machinery (tail → carry
// merges → compaction) and cross-checks every observable against a map
// model. Each pair of bytes is an edge; a third byte's parity picks
// AddEdge or Add, and a zero third byte emits the graph mid-stream so
// later additions land in compacted buckets. The vertex universe is
// small (n=48) so the fuzzer hammers duplicate handling, and large
// enough that one bucket reaches two full blocks and merges.
func FuzzBuilderSortedRunDedup(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 1, 2, 3, 0})
	f.Add([]byte{5, 6, 1, 6, 5, 2, 5, 7, 1, 5, 8, 1, 5, 9, 1, 5, 10, 1, 5, 11, 1, 5, 12, 1, 5, 13, 1, 5, 6, 2})
	f.Add([]byte{})
	// One bucket filled past two blocks in scrambled order, then probed
	// with every edge again: carries and run merges under duplicates.
	var crowd []byte
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 47; i++ {
			crowd = append(crowd, 0, byte(1+i*13%47), byte(1+pass))
		}
	}
	f.Add(crowd)
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 48
		b := NewBuilder(n)
		ref := map[[2]int32]bool{}
		check := func() {
			t.Helper()
			if b.NumEdges() != len(ref) {
				t.Fatalf("NumEdges=%d, model %d", b.NumEdges(), len(ref))
			}
			prev := [2]int32{-1, -1}
			count := 0
			for u, v := range b.All() {
				if !ref[[2]int32{u, v}] {
					t.Fatalf("iteration yields {%d,%d} not in model", u, v)
				}
				if u < prev[0] || (u == prev[0] && v <= prev[1]) {
					t.Fatalf("iteration unsorted/duplicated at {%d,%d}", u, v)
				}
				prev = [2]int32{u, v}
				count++
			}
			if count != len(ref) {
				t.Fatalf("iterated %d edges, model %d", count, len(ref))
			}
			g := b.Build()
			checkCSR(t, g)
			if g.M() != len(ref) {
				t.Fatalf("emitted graph has %d edges, model %d", g.M(), len(ref))
			}
			for k := range ref {
				if !g.HasEdge(int(k[0]), int(k[1])) {
					t.Fatalf("emitted graph missing {%d,%d}", k[0], k[1])
				}
			}
		}
		for i := 0; i+2 < len(data); i += 3 {
			u, v, op := int(data[i])%n, int(data[i+1])%n, data[i+2]
			if op == 0 {
				check()
			}
			if u == v {
				continue
			}
			k := [2]int32{int32(min(u, v)), int32(max(u, v))}
			wantNew := !ref[k]
			ref[k] = true
			if op%2 == 1 {
				if err := b.AddEdge(u, v); (err == nil) != wantNew {
					t.Fatalf("AddEdge(%d,%d) = %v: newness disagrees with model", u, v, err)
				}
			} else if b.Add(u, v) != wantNew {
				t.Fatalf("Add(%d,%d): newness disagrees with model", u, v)
			}
			if !b.HasEdge(u, v) || !b.HasEdge(v, u) {
				t.Fatalf("HasEdge(%d,%d) false right after adding it", u, v)
			}
		}
		check()
	})
}
