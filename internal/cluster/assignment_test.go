package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAssignment(t *testing.T) {
	a := NewAssignment(4)
	if a.Len() != 0 || a.Cap() != 4 {
		t.Fatalf("fresh assignment: Len=%d Cap=%d", a.Len(), a.Cap())
	}
	a.Set(2, 7)
	a.Set(0, -1)
	a.Set(2, 9) // overwrite, not a new entry
	if a.Len() != 2 {
		t.Errorf("Len=%d, want 2", a.Len())
	}
	if x, ok := a.Get(2); !ok || x != 9 {
		t.Errorf("Get(2)=(%d,%v)", x, ok)
	}
	if x, ok := a.Get(0); !ok || x != -1 {
		t.Errorf("Get(0)=(%d,%v): negative values must round-trip", x, ok)
	}
	if a.Has(1) {
		t.Error("Has(1) true without Set")
	}
	a.Reset()
	if a.Len() != 0 || a.Has(2) || a.Has(0) {
		t.Error("Reset did not clear")
	}
	if _, ok := a.Get(2); ok {
		t.Error("Get finds entry across Reset")
	}
	a.Set(3, 5)
	if x, ok := a.Get(3); !ok || x != 5 || a.Len() != 1 {
		t.Error("assignment unusable after Reset")
	}
}

// Generation wrap: after 2^32 resets the stamps must not alias stale
// entries. Simulated by forcing the counter near the wrap point.
func TestAssignmentGenerationWrap(t *testing.T) {
	a := NewAssignment(3)
	a.Set(1, 42)
	a.cur = ^uint32(0) // next Reset wraps
	a.gen[2] = ^uint32(0)
	a.Reset()
	if a.Has(1) || a.Has(2) {
		t.Error("stale entry visible after generation wrap")
	}
	a.Set(0, 1)
	if !a.Has(0) || a.Has(1) || a.Has(2) {
		t.Error("assignment inconsistent after wrap")
	}
}

// TestPropAssignmentMatchesMapModel: Assignment under random
// Set/Get/Reset interleavings behaves like a fresh map per generation.
func TestPropAssignmentMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		a := NewAssignment(n)
		ref := map[int]int32{}
		for i := 0; i < 300; i++ {
			v := r.Intn(n)
			switch r.Intn(5) {
			case 0, 1:
				x := int32(r.Intn(200) - 100)
				a.Set(v, x)
				ref[v] = x
			case 2:
				gx, gok := a.Get(v)
				wx, wok := ref[v]
				if gok != wok || (gok && gx != wx) {
					return false
				}
			case 3:
				if _, ok := ref[v]; a.Has(v) != ok {
					return false
				}
			case 4:
				if r.Intn(10) == 0 { // occasional generation clear
					a.Reset()
					ref = map[int]int32{}
				}
			}
			if a.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
