package tracker

import (
	"math"
	"reflect"
	"testing"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/scene"
	"ags/internal/splat"
	"ags/internal/vecmath"
)

func TestSolve6KnownSystem(t *testing.T) {
	// Diagonal system.
	var h [36]float64
	var b [6]float64
	for i := 0; i < 6; i++ {
		h[i*6+i] = float64(i + 1)
		b[i] = float64(i+1) * 2
	}
	x, ok := solve6(h, b)
	if !ok {
		t.Fatal("solve failed")
	}
	for i := 0; i < 6; i++ {
		if math.Abs(x[i]-2) > 1e-12 {
			t.Fatalf("x[%d] = %v", i, x[i])
		}
	}
}

func TestSolve6Singular(t *testing.T) {
	var h [36]float64
	var b [6]float64
	if _, ok := solve6(h, b); ok {
		t.Error("singular system solved")
	}
}

func TestSolve6RandomRoundTrip(t *testing.T) {
	// Build H = A^T A + I (SPD), pick x, compute b = Hx, solve.
	var h [36]float64
	seed := 1.0
	for i := range h {
		seed = math.Mod(seed*1.2345+0.678, 1)
		h[i] = seed
	}
	// Symmetrize and strengthen the diagonal.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			m := 0.5 * (h[i*6+j] + h[j*6+i])
			h[i*6+j], h[j*6+i] = m, m
		}
		h[i*6+i] += 6
	}
	want := [6]float64{1, -2, 0.5, 3, -1, 0.25}
	var b [6]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			b[i] += h[i*6+j] * want[j]
		}
	}
	x, ok := solve6(h, b)
	if !ok {
		t.Fatal("solve failed")
	}
	for i := 0; i < 6; i++ {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestCoarseAlignerIdentityOnSameFrame(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 64, Height: 48, Frames: 1, Seed: 1})
	a := NewCoarseAligner()
	rel := a.EstimateRelative(seq.Frames[0], seq.Frames[0], seq.Intr, vecmath.PoseIdentity())
	if tw := vecmath.LogSE3(rel); tw.Norm() > 1e-4 {
		t.Errorf("self-alignment drifted: %v", tw.Norm())
	}
}

func TestCoarseAlignerRecoversInterFrameMotion(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 96, Height: 72, Frames: 12, Seed: 1})
	a := NewCoarseAligner()
	for i := 1; i < 3; i++ {
		prev, cur := seq.Frames[i-1], seq.Frames[i]
		// Ground-truth relative transform.
		gtRel := cur.GTPose.Compose(prev.GTPose.Inverse())
		rel := a.EstimateRelative(prev, cur, seq.Intr, vecmath.PoseIdentity())
		errT := rel.T.Sub(gtRel.T).Norm()
		errR := rel.R.AngleTo(gtRel.R)
		// Without alignment the error would be the full inter-frame motion.
		rawT := gtRel.T.Norm()
		if errT > 0.35*rawT+0.002 {
			t.Errorf("frame %d: translation error %v vs motion %v", i, errT, rawT)
		}
		if errR > 0.02 {
			t.Errorf("frame %d: rotation error %v rad", i, errR)
		}
	}
}

func TestCoarseAlignerPoseComposition(t *testing.T) {
	seq := scene.MustGenerate("Xyz", scene.Config{Width: 64, Height: 48, Frames: 2, Seed: 1})
	a := NewCoarseAligner()
	est := a.EstimatePose(seq.Frames[0], seq.Frames[1], seq.Intr, seq.Frames[0].GTPose, vecmath.PoseIdentity())
	gt := seq.Frames[1].GTPose
	if d := est.TranslationTo(gt); d > 0.01 {
		t.Errorf("composed pose error %v m", d)
	}
}

// TestCoarseAlignerPyramidReuse: an aligner that keeps its pyramids between
// calls estimates exactly what a fresh one would, in every order the pipeline
// calls it (anchored to a key frame, frame to frame, a mix of frame sizes and
// level counts), and a call whose anchor it already holds allocates no
// pyramid planes again.
func TestCoarseAlignerPyramidReuse(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 64, Height: 48, Frames: 6, Seed: 1})
	small := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 2, Seed: 1})
	f, g := seq.Frames, small.Frames
	calls := []struct {
		prev, cur *frame.Frame
		intr      camera.Intrinsics
		levels    int
	}{
		{f[0], f[1], seq.Intr, 3}, {f[0], f[2], seq.Intr, 3}, // key-frame anchor
		{f[2], f[3], seq.Intr, 3}, {f[3], f[4], seq.Intr, 3}, // frame to frame
		{f[0], f[5], seq.Intr, 3}, {f[5], f[5], seq.Intr, 3},
		{g[0], g[1], small.Intr, 3}, {f[4], f[5], seq.Intr, 2}, {f[4], f[3], seq.Intr, 3},
	}
	kept := NewCoarseAligner()
	for i, c := range calls {
		fresh := NewCoarseAligner()
		fresh.Levels, kept.Levels = c.levels, c.levels
		want := fresh.EstimateRelative(c.prev, c.cur, c.intr, vecmath.PoseIdentity())
		if got := kept.EstimateRelative(c.prev, c.cur, c.intr, vecmath.PoseIdentity()); got != want {
			t.Errorf("call %d: kept aligner estimated %v, a fresh one %v", i, got, want)
		}
	}

	cold := testing.AllocsPerRun(5, func() {
		NewCoarseAligner().EstimateRelative(f[0], f[1], seq.Intr, vecmath.PoseIdentity())
	})
	kept.Levels = 3
	cur := 1
	warm := testing.AllocsPerRun(5, func() {
		kept.EstimateRelative(f[0], f[cur], seq.Intr, vecmath.PoseIdentity())
		cur = cur%5 + 1
	})
	if warm > 0 || cold < 10 {
		t.Errorf("warm anchored call made %.0f allocations (want 0), a cold aligner %.0f", warm, cold)
	}
}

// buildCloudFromFrame back-projects a frame into an isotropic Gaussian per
// n-th pixel — a miniature of the mapper's densification, giving the refiner
// a usable scene.
func buildCloudFromFrame(f *frame.Frame, intr camera.Intrinsics, stride int) *gauss.Cloud {
	cloud := gauss.NewCloud(1024)
	inv := f.GTPose.Inverse()
	for y := 0; y < intr.H; y += stride {
		for x := 0; x < intr.W; x += stride {
			d := f.Depth.At(x, y)
			if d <= 0 {
				continue
			}
			pc := intr.Unproject(vecmath.Vec2{X: float64(x) + 0.5, Y: float64(y) + 0.5}, d)
			g := gauss.Gaussian{
				Mean:  inv.Apply(pc),
				Color: f.Color.At(x, y),
			}
			g.SetScale(0.6 * d * float64(stride) / intr.Fx)
			// Near-opaque seeding: residual transmittance otherwise lets
			// far surfaces bleed into the blended depth.
			g.SetOpacity(0.999)
			cloud.Add(g)
		}
	}
	return cloud
}

func TestGSRefinerImprovesPerturbedPose(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 64, Height: 48, Frames: 1, Seed: 1})
	f := seq.Frames[0]
	cloud := buildCloudFromFrame(f, seq.Intr, 2)
	// Model-consistent target: the observation is the cloud's own rendering
	// from the ground-truth pose, so the GT pose is the true loss minimum.
	// (In the pipeline, mapping trains the cloud to fit the sensor frames
	// before tracking renders against it.)
	gtCam := camera.Camera{Intr: seq.Intr, Pose: f.GTPose}
	gtRes := splat.Render(cloud, gtCam, splat.Options{})
	target := &frame.Frame{Index: f.Index, Color: gtRes.Color, Depth: gtRes.NormalizedDepth(), GTPose: f.GTPose}

	perturbed := f.GTPose.Retract(vecmath.Twist{
		V: vecmath.Vec3{X: 0.02, Y: -0.015, Z: 0.01},
		W: vecmath.Vec3{Y: 0.015},
	})
	startErr := perturbed.TranslationTo(f.GTPose)
	r := NewGSRefiner()
	refined, stats := r.Refine(cloud, seq.Intr, target, perturbed, 40)
	endErr := refined.TranslationTo(f.GTPose)
	if endErr > startErr*0.6 {
		t.Errorf("refinement: %v -> %v", startErr, endErr)
	}
	if stats.Iters != 40 {
		t.Errorf("stats.Iters = %d", stats.Iters)
	}
	if stats.AlphaOps == 0 || stats.BlendOps == 0 || stats.BackwardOps == 0 {
		t.Error("workload counters empty")
	}
	if !stats.HasDetail() {
		t.Error("representative workload missing")
	}
	// Told to keep scalars only, the refiner does the same work and reports
	// the same stats less the detail, which it never builds.
	lean := NewGSRefiner()
	lean.ScalarsOnly = true
	leanPose, leanStats := lean.Refine(cloud, seq.Intr, target, perturbed, 40)
	stats.DropDetail()
	if leanPose != refined || !reflect.DeepEqual(leanStats, stats) {
		t.Errorf("scalars-only refine: pose %+v stats %+v, want %+v %+v", leanPose, leanStats, refined, stats)
	}
}

func TestGSRefinerZeroItersIsIdentity(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1})
	f := seq.Frames[0]
	cloud := buildCloudFromFrame(f, seq.Intr, 4)
	r := NewGSRefiner()
	pose, stats := r.Refine(cloud, seq.Intr, f, f.GTPose, 0)
	if pose.TranslationTo(f.GTPose) != 0 {
		t.Error("zero iterations changed the pose")
	}
	if stats.Iters != 0 {
		t.Error("zero iterations recorded work")
	}
}

func TestTileIDListsMapSplatsToGaussians(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1})
	f := seq.Frames[0]
	cloud := buildCloudFromFrame(f, seq.Intr, 4)
	cam := camera.Camera{Intr: seq.Intr, Pose: f.GTPose}
	res := splat.Render(cloud, cam, splat.Options{})
	lists := res.TileIDLists()
	if lists.NumTiles() != res.Tiles.NumTiles() || lists.IDs.Len() != res.Tiles.TotalEntries() {
		t.Fatalf("%d lists of %d IDs for %d tiles of %d entries", lists.NumTiles(), lists.IDs.Len(), res.Tiles.NumTiles(), res.Tiles.TotalEntries())
	}
	if err := lists.Validate(); err != nil {
		t.Fatal(err)
	}
	for ti := range lists.NumTiles() {
		lo, hi := lists.Tile(ti)
		for j, si := range res.Tiles.ListAt(ti) {
			if id := lists.IDs.At(lo + j); id != int32(res.Splats[si].ID) || int(id) >= cloud.Len() {
				t.Fatalf("tile %d entry %d: ID %d, the splat's Gaussian is %d", ti, j, id, res.Splats[si].ID)
			}
		}
		if hi-lo != len(res.Tiles.ListAt(ti)) {
			t.Fatalf("tile %d: %d IDs for %d entries", ti, hi-lo, len(res.Tiles.ListAt(ti)))
		}
	}
}
