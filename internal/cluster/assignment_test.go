package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAssignment(t *testing.T) {
	a := NewAssignment(4)
	if a.Len() != 0 {
		t.Fatalf("fresh assignment: Len=%d", a.Len())
	}
	a.Set(2)
	a.Set(0)
	a.Set(2) // already present, not a new entry
	if a.Len() != 2 || !a.Has(2) || !a.Has(0) {
		t.Errorf("Len=%d Has(2)=%v Has(0)=%v", a.Len(), a.Has(2), a.Has(0))
	}
	if a.Has(1) {
		t.Error("Has(1) true without Set")
	}
	a.Reset()
	if a.Len() != 0 || a.Has(2) || a.Has(0) {
		t.Error("Reset did not clear")
	}
	a.Set(3)
	if !a.Has(3) || a.Len() != 1 {
		t.Error("assignment unusable after Reset")
	}
}

// Generation wrap: after 2^32 resets the stamps must not alias stale
// entries. Simulated by forcing the counter near the wrap point.
func TestAssignmentGenerationWrap(t *testing.T) {
	a := NewAssignment(3)
	a.Set(1)
	a.cur = ^uint32(0) // next Reset wraps
	a.gen[2] = ^uint32(0)
	a.Reset()
	if a.Has(1) || a.Has(2) {
		t.Error("stale entry visible after generation wrap")
	}
	a.Set(0)
	if !a.Has(0) || a.Has(1) || a.Has(2) {
		t.Error("assignment inconsistent after wrap")
	}
}

// TestPropAssignmentMatchesMapModel: Assignment under random
// Set/Has/Reset interleavings behaves like a fresh map per generation.
func TestPropAssignmentMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		a := NewAssignment(n)
		ref := map[int]bool{}
		for i := 0; i < 300; i++ {
			v := r.Intn(n)
			switch r.Intn(4) {
			case 0, 1:
				a.Set(v)
				ref[v] = true
			case 2:
				if a.Has(v) != ref[v] {
					return false
				}
			case 3:
				if r.Intn(10) == 0 { // occasional generation clear
					a.Reset()
					ref = map[int]bool{}
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
