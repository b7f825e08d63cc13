package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// The binary CSR codec is the persistence form of a Graph: spanner
// snapshots serialize the exact offs/adj arrays, so a decoded graph is
// bit-identical to the encoded one — same port numbering, same
// fingerprint — without re-sorting or re-deduplicating anything.
//
// Layout (all little-endian):
//
//	uint64 n, uint64 m
//	int32 offs[n+1]
//	int32 adj[2m]
//
// The codec carries no checksum of its own; callers that persist it
// (internal/store snapshots) wrap it in a checksummed envelope.
// DecodeBinary still validates the structure fully — monotone offsets,
// in-range strictly-ascending adjacency rows, no self-loops, symmetric
// rows — so a tampered payload that slips past an outer checksum decodes
// to an error, never to a Graph that corrupts a traversal.

// codecMaxN bounds the vertex and edge counts DecodeBinary accepts,
// comfortably above every workload in this repository. A corrupt header
// cannot demand an absurd allocation either way: readInt32s rejects a
// count beyond the bytes left in the input before allocating.
const codecMaxN = 1 << 34

// EncodeBinary writes the graph in the deterministic binary CSR layout
// above. The same graph always produces the same bytes.
func (g *Graph) EncodeBinary(w io.Writer) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.m))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeInt32s(w, g.offs); err != nil {
		return err
	}
	return writeInt32s(w, g.adj)
}

// EncodedSize returns the exact byte length EncodeBinary will write.
func (g *Graph) EncodedSize() int64 {
	return 16 + 4*int64(len(g.offs)) + 4*int64(len(g.adj))
}

// DecodeBinary parses the layout written by EncodeBinary and validates
// every structural invariant a Graph promises. Malformed or truncated
// input returns an error; it never panics and never returns a graph
// whose accessors could misbehave. It reads from a bytes.Reader, whose
// unread length bounds every array before it is allocated; the rest of
// r after the graph is left unread.
func DecodeBinary(r *bytes.Reader) (*Graph, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: decode header: %w", err)
	}
	n64 := binary.LittleEndian.Uint64(hdr[0:8])
	m64 := binary.LittleEndian.Uint64(hdr[8:16])
	if n64 > codecMaxN || m64 > codecMaxN {
		return nil, fmt.Errorf("graph: decode: implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	offs, err := readInt32s(r, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: decode offsets: %w", err)
	}
	if offs[0] != 0 {
		return nil, fmt.Errorf("graph: decode: offs[0] = %d, want 0", offs[0])
	}
	for v := 0; v < n; v++ {
		if offs[v+1] < offs[v] {
			return nil, fmt.Errorf("graph: decode: offsets not monotone at vertex %d", v)
		}
	}
	if int(offs[n]) != 2*m {
		return nil, fmt.Errorf("graph: decode: offs[n] = %d, want 2m = %d", offs[n], 2*m)
	}
	adj, err := readInt32s(r, 2*m)
	if err != nil {
		return nil, fmt.Errorf("graph: decode adjacency: %w", err)
	}
	// Symmetry in O(n+m): rows are ascending, so the entries of row w
	// below w must be exactly the lower vertices whose rows list w, in
	// ascending order. Walking v upward, each entry w > v of row v is
	// matched against next[w], row w's first entry not yet matched.
	next := make([]int32, n)
	copy(next, offs[:n])
	degMax := 0
	for v := 0; v < n; v++ {
		row := adj[offs[v]:offs[v+1]]
		prev := int32(-1)
		for _, w := range row {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: decode: neighbor %d of vertex %d out of range [0,%d)", w, v, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: decode: self-loop on vertex %d", v)
			}
			if w <= prev {
				return nil, fmt.Errorf("graph: decode: adjacency of vertex %d not strictly ascending", v)
			}
			prev = w
			if int(w) > v {
				if i := next[w]; i == offs[w+1] || adj[i] != int32(v) {
					return nil, fmt.Errorf("graph: decode: asymmetric adjacency: %d lists %d but not the reverse", v, w)
				}
				next[w]++
			}
		}
		// Every lower vertex that lists v has been matched; an entry of
		// row v below v left over was listed by no one.
		if i := next[v]; i < offs[v+1] && int(adj[i]) < v {
			return nil, fmt.Errorf("graph: decode: asymmetric adjacency: %d lists %d but not the reverse", v, adj[i])
		}
		if d := len(row); d > degMax {
			degMax = d
		}
	}
	return &Graph{n: n, m: m, offs: offs, adj: adj, degMax: degMax}, nil
}

const codecChunk = 8192 // int32s per read/write syscall

func writeInt32s(w io.Writer, s []int32) error {
	buf := make([]byte, 4*codecChunk)
	for len(s) > 0 {
		k := min(len(s), codecChunk)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(s[i]))
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// readInt32s reads exactly count int32s. A count beyond the bytes left
// in r — a corrupt header — fails before anything is allocated, so the
// array is sized once, at exactly count.
func readInt32s(r *bytes.Reader, count int) ([]int32, error) {
	if count > r.Len()/4 {
		return nil, io.ErrUnexpectedEOF
	}
	out := make([]int32, count)
	buf := make([]byte, 4*codecChunk)
	for done := 0; done < count; {
		k := min(count-done, codecChunk)
		b := buf[:4*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			out[done+i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		done += k
	}
	return out, nil
}
