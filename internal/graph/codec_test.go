package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

func codecTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rnd := rand.New(rand.NewSource(41))
	b := NewBuilder(64)
	for i := 0; i < 200; i++ {
		u, v := rnd.Intn(64), rnd.Intn(64)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	path := NewBuilder(9)
	for i := 0; i < 8; i++ {
		path.AddEdge(i, i+1)
	}
	return map[string]*Graph{
		"empty":    NewBuilder(0).Build(),
		"isolated": NewBuilder(5).Build(),
		"path":     path.Build(),
		"random":   b.Build(),
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, g := range codecTestGraphs(t) {
		var buf bytes.Buffer
		if err := g.EncodeBinary(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if int64(buf.Len()) != g.EncodedSize() {
			t.Errorf("%s: encoded %d bytes, EncodedSize says %d", name, buf.Len(), g.EncodedSize())
		}
		g2, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if g2.N() != g.N() || g2.M() != g.M() || g2.MaxDegree() != g.MaxDegree() {
			t.Fatalf("%s: decoded (n=%d m=%d deg=%d), want (n=%d m=%d deg=%d)",
				name, g2.N(), g2.M(), g2.MaxDegree(), g.N(), g.M(), g.MaxDegree())
		}
		_, fp := Fingerprint(g)
		_, fp2 := Fingerprint(g2)
		if fp != fp2 {
			t.Errorf("%s: fingerprint drifted through the codec: %s vs %s", name, fp, fp2)
		}
		// Bit-identical re-encode: the codec is deterministic.
		var buf2 bytes.Buffer
		if err := g2.EncodeBinary(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: re-encoded bytes differ from the original encoding", name)
		}
	}
}

// Every truncation of a valid encoding must error cleanly, and every
// single-byte tampering must either error or leave the structural
// invariants intact (a flip in an adjacency value breaks symmetry, but
// header or offset flips could in principle still decode to a valid
// graph; the snapshot layer's checksum catches those).
func TestCodecTruncationAndTamper(t *testing.T) {
	g := codecTestGraphs(t)["random"]
	var buf bytes.Buffer
	if err := g.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := DecodeBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tampered := append([]byte(nil), full...)
		i := rnd.Intn(len(tampered))
		tampered[i] ^= 1 << rnd.Intn(8)
		g2, err := DecodeBinary(bytes.NewReader(tampered))
		if err != nil {
			continue
		}
		// A surviving decode must still be structurally sound.
		checkCSR(t, g2)
	}
}

func TestCodecRejectsImplausibleHeader(t *testing.T) {
	var buf bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 1<<60) // absurd n
	binary.LittleEndian.PutUint64(hdr[8:16], 4)
	buf.Write(hdr[:])
	if _, err := DecodeBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("implausible header decoded without error")
	}
}

// TestDecodeBinaryAllocsIndependentOfSize: the offset and adjacency
// arrays are each allocated once, at their exact size, so decoding a
// 40,000-vertex grid costs as many allocations as a 100-vertex one
// instead of one more per append growth.
func TestDecodeBinaryAllocsIndependentOfSize(t *testing.T) {
	allocs := func(side int) float64 {
		b := NewBuilder(side * side)
		for v := 0; v < side*side; v++ {
			if v%side+1 < side {
				b.AddEdge(v, v+1)
			}
			if v+side < side*side {
				b.AddEdge(v, v+side)
			}
		}
		var buf bytes.Buffer
		if err := b.Build().EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(3, func() {
			if _, err := DecodeBinary(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(200); large != small {
		t.Errorf("decoding a 200x200 grid took %v allocations, a 10x10 grid %v: want equal", large, small)
	}
}

// TestDecodeBinaryHeaderBeyondInput: a header that claims far more
// entries than the input holds fails before allocating for the claim:
// what is allocated on the way is bounded by the bytes present.
func TestDecodeBinaryHeaderBeyondInput(t *testing.T) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 1<<30)
	binary.LittleEndian.PutUint64(hdr[8:16], 1<<30)
	data := append(hdr[:], make([]byte, 4096)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("a header claiming 2^30 vertices decoded from 4 KiB")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting a 4 KiB input allocated %d bytes", got)
	}
}
