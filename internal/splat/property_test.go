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
// over randomized scenes: transmittance and silhouette stay in [0,1], their
// sum is 1 up to early-termination truncation, colors and depths are bounded
// by the inputs, and all outputs are finite.
func TestPropertyRenderInvariants(t *testing.T) {
	cam := testCam(32, 24)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cloud := randomCloud(rng, 3+rng.Intn(25))
		res := Render(cloud, cam, Options{Workers: 1})
		var maxDepth float64
		for _, s := range res.Splats {
			maxDepth = math.Max(maxDepth, s.Depth)
		}
		for pix := range res.FinalT {
			tr := res.FinalT[pix]
			sil := res.Silhouette[pix]
			if tr < 0 || tr > 1 || sil < 0 || sil > 1 {
				return false
			}
			// Conservation: accumulated alpha + remaining transmittance = 1
			// exactly when the pixel did not terminate early.
			if tr >= TransmittanceEps && math.Abs(sil+tr-1) > 1e-9 {
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
		res := Render(cloud, cam, Options{Workers: 1})
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
		res := Render(cloud, cam, Options{Workers: 1, LogContribution: true})
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
// footprint spans a single tile — the per-tile gradient shards merged by a
// multi-worker Backward are bitwise equal to the single-shard Workers=1
// reference, and the multi-worker Render digest matches too.
func TestPropertyShardMergeMatchesSingleShard(t *testing.T) {
	cam := testCam(48, 32) // 3x2 tile grid
	lc := DefaultMappingLoss()
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
		tgtRes := Render(randomCloud(rng, 3), cam, Options{Workers: 1})
		target := &frame.Frame{Color: tgtRes.Color, Depth: tgtRes.NormalizedDepth()}

		opts := Options{Workers: 1, LogContribution: true}
		refRes := Render(cloud, cam, opts)
		refG := Backward(cloud, cam, refRes, target, lc, BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: 1})

		workers := 2 + rng.Intn(6)
		opts.Workers = workers
		res := Render(cloud, cam, opts)
		g := Backward(cloud, cam, res, target, lc, BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: workers})
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
		full := Render(cloud, cam, Options{Workers: 1})
		skip := make([]bool, cloud.Len())
		for i := range skip {
			skip[i] = rng.Intn(3) == 0
		}
		sel := Render(cloud, cam, Options{Workers: 1, Skip: skip})
		return sel.AlphaOps <= full.AlphaOps &&
			sel.BlendOps <= full.BlendOps &&
			len(sel.Splats) <= len(full.Splats)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
