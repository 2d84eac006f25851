package gauss

import (
	"testing"

	"ags/internal/vecmath"
)

func numberedGaussian(i int) Gaussian {
	g := Gaussian{
		Mean:  vecmath.Vec3{X: float64(i), Y: 1, Z: 2},
		Color: vecmath.Vec3{X: 0.5, Y: 0.5, Z: 0.5},
	}
	g.SetScale(0.1)
	g.SetOpacity(0.9)
	return g
}

func TestCompactPacksSurvivorsInOrder(t *testing.T) {
	c := NewCloud(8)
	for i := 0; i < 6; i++ {
		c.Add(numberedGaussian(i))
	}
	c.Prune(1)
	c.Prune(4)
	remap, freed := c.Compact()
	if freed != 2 {
		t.Fatalf("freed = %d, want 2", freed)
	}
	if c.Len() != 4 || c.NumActive() != 4 || c.NumInactive() != 0 {
		t.Fatalf("len %d active %d inactive %d after compaction", c.Len(), c.NumActive(), c.NumInactive())
	}
	// Survivors keep their relative order; dead slots get unique in-range IDs
	// past the survivor prefix, ascending by old ID.
	want := []int32{0, 4, 1, 2, 5, 3}
	for old, nw := range remap {
		if nw != want[old] {
			t.Fatalf("remap = %v, want %v", remap, want)
		}
	}
	for nw, old := range []int{0, 2, 3, 5} {
		if got := c.At(nw).Mean.X; got != float64(old) {
			t.Errorf("slot %d holds Gaussian %v, want %d", nw, got, old)
		}
		if !c.IsActive(nw) {
			t.Errorf("slot %d inactive after compaction", nw)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactDenseCloudIsIdentity(t *testing.T) {
	c := NewCloud(4)
	for i := 0; i < 4; i++ {
		c.Add(numberedGaussian(i))
	}
	remap, freed := c.Compact()
	if freed != 0 {
		t.Fatalf("freed = %d on a dense cloud", freed)
	}
	for old, nw := range remap {
		if int(nw) != old {
			t.Fatalf("remap = %v, want identity", remap)
		}
	}
	if c.Len() != 4 || c.NumActive() != 4 {
		t.Fatalf("dense compaction changed the cloud: len %d active %d", c.Len(), c.NumActive())
	}
}

// TestPruneRepeatedNoDoubleCount is the regression test for the prune
// double-decrement bug: pruning an already-dead ID must not count again (the
// active total would drift below the truth and, being the digest's map-size
// prefix, poison cross-run comparisons).
func TestPruneRepeatedNoDoubleCount(t *testing.T) {
	c := NewCloud(4)
	for i := 0; i < 3; i++ {
		c.Add(numberedGaussian(i))
	}
	if !c.Prune(1) {
		t.Fatal("first prune of a live ID reported no transition")
	}
	if c.Prune(1) {
		t.Fatal("second prune of the same ID reported a transition")
	}
	if c.Prune(-1) || c.Prune(3) {
		t.Fatal("out-of-range prune reported a transition")
	}
	if c.NumActive() != 2 {
		t.Fatalf("NumActive = %d after repeated prunes, want 2", c.NumActive())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetAllRecountsActive(t *testing.T) {
	c := NewCloud(0)
	gs := []Gaussian{numberedGaussian(0), numberedGaussian(1), numberedGaussian(2)}
	if err := c.SetAll(gs, []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	if c.NumActive() != 2 || c.NumInactive() != 1 {
		t.Fatalf("active %d inactive %d, want 2/1", c.NumActive(), c.NumInactive())
	}
	if err := c.SetAll(gs, []bool{true}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}
