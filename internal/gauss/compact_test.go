package gauss

import (
	"math/rand"
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

// dropMeans is a Remove predicate dropping the Gaussians numbered (by
// numberedGaussian) in ids.
func dropMeans(ids ...int) func(*Gaussian) bool {
	return func(g *Gaussian) bool {
		for _, id := range ids {
			if g.Mean.X == float64(id) {
				return true
			}
		}
		return false
	}
}

func TestCompactPacksSurvivorsInOrder(t *testing.T) {
	c := NewCloud(8)
	for i := 0; i < 6; i++ {
		c.Add(numberedGaussian(i))
	}
	remap, n := c.Remove(dropMeans(1, 4))
	if n != 2 {
		t.Fatalf("removed = %d, want 2", n)
	}
	if c.Len() != 4 || c.NumActive() != 4 {
		t.Fatalf("len %d active %d after removal", c.Len(), c.NumActive())
	}
	// Survivors keep their relative order; removed IDs map to -1.
	want := []int32{0, -1, 1, 2, -1, 3}
	for old, nw := range remap {
		if nw != want[old] {
			t.Fatalf("remap = %v, want %v", remap, want)
		}
	}
	for nw, old := range []int{0, 2, 3, 5} {
		if got := c.At(nw).Mean.X; got != float64(old) {
			t.Errorf("slot %d holds Gaussian %v, want %d", nw, got, old)
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
	before := c.Clone()
	remap, n := c.Remove(dropMeans())
	if remap != nil || n != 0 {
		t.Fatalf("removing nothing returned remap %v, n %d; want nil, 0", remap, n)
	}
	for id := range before.Gaussians {
		if *c.At(id) != *before.At(id) {
			t.Fatalf("removing nothing changed Gaussian %d", id)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("removing nothing changed the length to %d", c.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() { c.Remove(dropMeans()) }); allocs != 0 {
		t.Fatalf("removing nothing allocates %v times", allocs)
	}
}

// TestRemoveProperty draws random clouds and drop sets and checks the remap
// contract: survivors keep their parameters and relative order at [0, kept),
// removed IDs map to -1, and n counts exactly the removed.
func TestRemoveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		size := rng.Intn(40)
		c := NewCloud(size)
		var drop []int
		for i := 0; i < size; i++ {
			c.Add(numberedGaussian(i))
			if rng.Float64() < 0.3 {
				drop = append(drop, i)
			}
		}
		before := c.Clone()
		remap, n := c.Remove(dropMeans(drop...))
		if n != len(drop) {
			t.Fatalf("trial %d: removed %d, want %d", trial, n, len(drop))
		}
		if n == 0 {
			if remap != nil || c.Len() != size {
				t.Fatalf("trial %d: removing nothing returned remap %v, len %d", trial, remap, c.Len())
			}
			continue
		}
		kept := size - n
		if len(remap) != size || c.Len() != kept {
			t.Fatalf("trial %d: remap len %d, cloud len %d; want %d, %d", trial, len(remap), c.Len(), size, kept)
		}
		lastKept := int32(-1)
		for old, nw := range remap {
			if dropMeans(drop...)(before.At(old)) {
				if nw != -1 {
					t.Fatalf("trial %d: removed ID %d maps to %d, want -1", trial, old, nw)
				}
				continue
			}
			if nw != lastKept+1 {
				t.Fatalf("trial %d: survivor %d maps to %d, want %d", trial, old, nw, lastKept+1)
			}
			lastKept = nw
			if *c.At(int(nw)) != *before.At(old) {
				t.Fatalf("trial %d: survivor %d changed on the way to %d", trial, old, nw)
			}
		}
	}
}

// TestPruneRepeatedNoDoubleCount: a second removal with the same predicate
// finds nothing left to remove, so per-frame prune counts never count a
// Gaussian twice.
func TestPruneRepeatedNoDoubleCount(t *testing.T) {
	c := NewCloud(4)
	for i := 0; i < 3; i++ {
		c.Add(numberedGaussian(i))
	}
	if _, n := c.Remove(dropMeans(1)); n != 1 {
		t.Fatalf("first removal of a live Gaussian removed %d", n)
	}
	if remap, n := c.Remove(dropMeans(1)); n != 0 || remap != nil {
		t.Fatalf("second removal of the same Gaussian removed %d (remap %v)", n, remap)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after repeated removals, want 2", c.Len())
	}
}

func TestSetAllRecountsActive(t *testing.T) {
	c := NewCloud(0)
	gs := []Gaussian{numberedGaussian(0), numberedGaussian(1), numberedGaussian(2)}
	c.SetAll(gs)
	if c.NumActive() != 3 || c.Len() != 3 {
		t.Fatalf("active %d len %d, want 3/3", c.NumActive(), c.Len())
	}
	if c.At(1) != &gs[1] {
		t.Fatal("SetAll copied the slice instead of adopting it")
	}
}
