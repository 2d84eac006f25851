package splat

import (
	"math/rand"
	"testing"

	"ags/internal/gauss"
)

// TestRenderInvariantUnderCompaction: rendering a cloud with some Gaussians
// skipped and rendering the cloud of the others alone, in their relative
// order, must produce bit-identical images: projection, tile build, depth
// sort and blending see the same splat sequence, so a skipped Gaussian is
// exactly absent from the render.
func TestRenderInvariantUnderCompaction(t *testing.T) {
	cam := testCam(48, 36)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		cloud := randomCloud(rng, 40+rng.Intn(40))
		skip := make([]bool, cloud.Len())
		for id := range skip {
			skip[id] = rng.Float64() < 0.3
		}
		removed := gauss.NewCloud(cloud.Len())
		for id, g := range cloud.Gaussians {
			if !skip[id] {
				removed.Add(g)
			}
		}
		if removed.Len() == cloud.Len() {
			continue // nothing skipped; nothing to compare
		}
		sparse := Render(cloud, cam, Options{Skip: skip})
		dense := Render(removed, cam, Options{})
		if len(sparse.Color.Pix) != len(dense.Color.Pix) {
			t.Fatalf("trial %d: pixel count %d vs %d", trial, len(sparse.Color.Pix), len(dense.Color.Pix))
		}
		for i := range sparse.Color.Pix {
			if sparse.Color.Pix[i] != dense.Color.Pix[i] {
				t.Fatalf("trial %d: pixel %d differs: %v vs %v",
					trial, i, sparse.Color.Pix[i], dense.Color.Pix[i])
			}
		}
		for i := range sparse.Depth.D {
			if sparse.Depth.D[i] != dense.Depth.D[i] {
				t.Fatalf("trial %d: depth %d differs", trial, i)
			}
		}
		if len(sparse.Splats) != len(dense.Splats) {
			t.Fatalf("trial %d: %d vs %d splats survived projection",
				trial, len(sparse.Splats), len(dense.Splats))
		}
	}
}
