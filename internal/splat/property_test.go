package splat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/vecmath"
)

// randomCloud builds a cloud of n random Gaussians in front of the camera.
func randomCloud(rng *rand.Rand, n int) *gauss.Cloud {
	cloud := gauss.NewCloud(n)
	for i := 0; i < n; i++ {
		g := gauss.Gaussian{
			Mean: vecmath.Vec3{
				X: rng.NormFloat64() * 0.6,
				Y: rng.NormFloat64() * 0.4,
				Z: 0.8 + rng.Float64()*3,
			},
			Color: vecmath.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()},
		}
		g.SetScale(0.02 + rng.Float64()*0.3)
		g.SetOpacity(0.05 + 0.9*rng.Float64())
		cloud.Add(g)
	}
	return cloud
}

// TestPropertyRenderInvariants checks physical invariants of alpha blending
// over randomized scenes: the silhouette stays in [0,1], a pixel that stopped
// before the end of its tile's table did so because the transmittance left,
// 1 - silhouette, fell below TransmittanceEps, colors and depths are bounded
// by the inputs, and all outputs are finite.
func TestPropertyRenderInvariants(t *testing.T) {
	cam := testCam(32, 24)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cloud := randomCloud(rng, 3+rng.Intn(25))
		res := Render(cloud, cam, Options{})
		var maxDepth float64
		for _, s := range res.Splats {
			maxDepth = math.Max(maxDepth, s.Depth)
		}
		for pix, sil := range res.Silhouette {
			if sil < 0 || sil > 1 {
				return false
			}
			// Early termination: a pixel that visited less than its whole
			// table stopped where the transmittance left fell below the
			// threshold (up to the rounding of 1 - silhouette).
			x, y := pix%cam.Intr.W, pix/cam.Intr.W
			table := res.Tiles.ListAt((y/TileSize)*res.Tiles.TW + x/TileSize)
			if int(res.PerPixelAlpha[pix]) < len(table) && 1-sil >= TransmittanceEps+1e-9 {
				return false
			}
			c := res.Color.Pix[pix]
			if !c.IsFinite() || c.X < 0 || c.Y < 0 || c.Z < 0 {
				return false
			}
			// Blended color can never exceed the brightest input color.
			if c.X > 1 || c.Y > 1 || c.Z > 1 {
				return false
			}
			d := res.Depth.D[pix]
			if d < 0 || d > maxDepth+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyOpsConsistency checks the workload counters: blend ops never
// exceed alpha ops, and per-pixel counters sum to the totals.
func TestPropertyOpsConsistency(t *testing.T) {
	cam := testCam(32, 24)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cloud := randomCloud(rng, 3+rng.Intn(25))
		res := Render(cloud, cam, Options{})
		if res.BlendOps > res.AlphaOps {
			return false
		}
		var alphaSum, blendSum int64
		for i := range res.PerPixelAlpha {
			alphaSum += int64(res.PerPixelAlpha[i])
			blendSum += int64(res.PerPixelBlend[i])
			if res.PerPixelBlend[i] > res.PerPixelAlpha[i] {
				return false
			}
		}
		return alphaSum == res.AlphaOps && blendSum == res.BlendOps
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyContributionAccounting checks NonContrib <= Touched and that
// every active, visible Gaussian's touched count matches its tile footprint.
func TestPropertyContributionAccounting(t *testing.T) {
	cam := testCam(32, 24)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cloud := randomCloud(rng, 3+rng.Intn(25))
		res := Render(cloud, cam, Options{LogContribution: true})
		for id := range res.Touched {
			if res.NonContrib[id] > res.Touched[id] || res.NonContrib[id] < 0 {
				return false
			}
		}
		// With early-termination counting, every pixel of every tile a splat
		// belongs to is accounted: sum of Touched equals the total tile-list
		// coverage in pixels.
		var touchedSum int64
		for _, v := range res.Touched {
			touchedSum += int64(v)
		}
		var coverage int64
		for ti := 0; ti < res.Tiles.NumTiles(); ti++ {
			tx, ty := ti%res.Tiles.TW, ti/res.Tiles.TW
			w := min(TileSize, cam.Intr.W-tx*TileSize)
			h := min(TileSize, cam.Intr.H-ty*TileSize)
			coverage += int64(len(res.Tiles.ListAt(ti))) * int64(w*h)
		}
		return touchedSum == coverage
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyShardMergeMatchesSingleShard: for randomized clouds — including
// clouds with no splats at all (every tile list empty) and clouds whose
// footprint spans a single tile — the per-tile gradient partials merged by
// a Backward whose tiles a helper races the caller for are bitwise equal to
// the one-shot pass's, whose caller takes every tile, and so is the helped
// Render's digest.
func TestPropertyShardMergeMatchesSingleShard(t *testing.T) {
	cam := testCam(48, 32) // 3x2 tile grid
	lc := DefaultMappingLoss()
	helped := NewRenderContext()
	defer spinHelper(helped)()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cloud *gauss.Cloud
		switch rng.Intn(5) {
		case 0:
			// Degenerate: nothing to shard, every tile list is empty.
			cloud = gauss.NewCloud(0)
		case 1:
			// One tiny splat confined to a single interior tile.
			cloud = gauss.NewCloud(1)
			g := gauss.Gaussian{
				Mean:  vecmath.Vec3{X: 0.02, Y: 0.38, Z: 2},
				Color: vecmath.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()},
			}
			g.SetScale(0.02)
			g.SetOpacity(0.3 + 0.6*rng.Float64())
			cloud.Add(g)
		default:
			cloud = randomCloud(rng, 1+rng.Intn(28))
		}
		tgtRes := Render(randomCloud(rng, 3), cam, Options{})
		target := &frame.Frame{Color: tgtRes.Color, Depth: tgtRes.NormalizedDepth()}

		opts := Options{LogContribution: true}
		bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true}
		refRes := Render(cloud, cam, opts)
		refG := NewRenderContext().Backward(cloud, cam, refRes, target, lc, bopts)

		res := helped.Render(cloud, cam, opts)
		g := helped.Backward(cloud, cam, res, target, lc, bopts)
		return res.Digest() == refRes.Digest() && g.Digest() == refG.Digest()
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertySkipMonotone: skipping Gaussians can only reduce work.
func TestPropertySkipMonotone(t *testing.T) {
	cam := testCam(32, 24)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cloud := randomCloud(rng, 5+rng.Intn(20))
		full := Render(cloud, cam, Options{})
		skip := make([]bool, cloud.Len())
		for i := range skip {
			skip[i] = rng.Intn(3) == 0
		}
		sel := Render(cloud, cam, Options{Skip: skip})
		return sel.AlphaOps <= full.AlphaOps &&
			sel.BlendOps <= full.BlendOps &&
			len(sel.Splats) <= len(full.Splats)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
