package splat

import (
	"math"
	"testing"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/vecmath"
)

func testCam(w, h int) camera.Camera {
	return camera.Camera{
		Intr: camera.NewIntrinsics(w, h, math.Pi/3),
		Pose: vecmath.PoseIdentity(),
	}
}

// centeredGaussian returns a Gaussian on the optical axis at depth z.
func centeredGaussian(z, scale, opacity float64, color vecmath.Vec3) gauss.Gaussian {
	g := gauss.Gaussian{
		Mean:  vecmath.Vec3{Z: z},
		Color: color,
	}
	g.SetScale(scale)
	g.SetOpacity(opacity)
	return g
}

func TestProjectGaussianCenter(t *testing.T) {
	cam := testCam(64, 48)
	g := centeredGaussian(2, 0.1, 0.8, vecmath.Vec3{X: 1})
	var s Splat
	if !projectInto(&s, &g, cam) {
		t.Fatal("projection failed")
	}
	if math.Abs(s.Mean2D.X-cam.Intr.Cx) > 1e-9 || math.Abs(s.Mean2D.Y-cam.Intr.Cy) > 1e-9 {
		t.Errorf("center splat at %v", s.Mean2D)
	}
	if math.Abs(s.Depth-2) > 1e-12 {
		t.Errorf("depth = %v", s.Depth)
	}
	// Expected pixel sigma = fx * scale / z; radius = 3*sigma (plus blur).
	sigma := cam.Intr.Fx * 0.1 / 2
	wantR := 3 * math.Sqrt(sigma*sigma+covBlur)
	if math.Abs(s.Radius-wantR) > 0.05*wantR {
		t.Errorf("radius = %v, want about %v", s.Radius, wantR)
	}
}

func TestProjectGaussianBehindCamera(t *testing.T) {
	cam := testCam(64, 48)
	g := centeredGaussian(-1, 0.1, 0.8, vecmath.Vec3{})
	if projectInto(new(Splat), &g, cam) {
		t.Error("gaussian behind camera projected")
	}
}

func TestSplatEvalPeakAtCenter(t *testing.T) {
	cam := testCam(64, 48)
	g := centeredGaussian(2, 0.1, 0.8, vecmath.Vec3{X: 1})
	var s Splat
	projectInto(&s, &g, cam)
	peak := s.Eval(s.Mean2D.X, s.Mean2D.Y)
	if math.Abs(peak-1) > 1e-12 {
		t.Errorf("peak falloff = %v", peak)
	}
	if off := s.Eval(s.Mean2D.X+s.Radius, s.Mean2D.Y); off >= peak {
		t.Error("falloff did not decay with distance")
	}
}

func TestRenderSingleGaussianColor(t *testing.T) {
	cam := testCam(64, 48)
	cloud := gauss.NewCloud(1)
	cloud.Add(centeredGaussian(2, 0.3, 0.999, vecmath.Vec3{X: 0.8, Y: 0.2, Z: 0.1}))
	res := Render(cloud, cam, Options{})
	c := res.Color.At(32, 24)
	// Alpha clamps at MaxAlpha, so the center pixel is ~0.99 * color.
	want := vecmath.Vec3{X: 0.8, Y: 0.2, Z: 0.1}.Scale(MaxAlpha)
	if c.Sub(want).Norm() > 0.02 {
		t.Errorf("center color = %v, want about %v", c, want)
	}
	if d := res.Depth.At(32, 24); math.Abs(d-2*MaxAlpha) > 0.05 {
		t.Errorf("center depth = %v", d)
	}
	if sil := res.Silhouette[24*64+32]; math.Abs(sil-MaxAlpha) > 0.01 {
		t.Errorf("silhouette = %v", sil)
	}
	// A corner pixel far outside 3 sigma must be black.
	if c := res.Color.At(0, 0); c.Norm() > 1e-6 {
		t.Errorf("corner color = %v", c)
	}
}

func TestRenderDepthOrderOcclusion(t *testing.T) {
	cam := testCam(64, 48)
	cloud := gauss.NewCloud(2)
	// Back gaussian added first to verify sorting is by depth, not insertion.
	cloud.Add(centeredGaussian(4, 0.5, 0.999, vecmath.Vec3{Z: 1})) // blue, far
	cloud.Add(centeredGaussian(2, 0.3, 0.999, vecmath.Vec3{X: 1})) // red, near
	res := Render(cloud, cam, Options{})
	c := res.Color.At(32, 24)
	if c.X < 0.9 || c.Z > 0.05 {
		t.Errorf("near gaussian did not occlude: %v", c)
	}
}

func TestRenderEarlyTermination(t *testing.T) {
	cam := testCam(32, 32)
	cloud := gauss.NewCloud(30)
	for i := 0; i < 30; i++ {
		cloud.Add(centeredGaussian(1+0.1*float64(i), 0.5, 0.9, vecmath.Vec3{X: 0.5}))
	}
	res := Render(cloud, cam, Options{})
	pix := 16*32 + 16
	if left := 1 - res.Silhouette[pix]; left >= TransmittanceEps {
		t.Fatalf("transmittance %v did not terminate", left)
	}
	// Early termination: far fewer blends than 30 per center pixel.
	if res.PerPixelBlend[pix] >= 30 {
		t.Errorf("blend count %d, early termination ineffective", res.PerPixelBlend[pix])
	}
}

func TestRenderSkipList(t *testing.T) {
	cam := testCam(64, 48)
	cloud := gauss.NewCloud(2)
	id0 := cloud.Add(centeredGaussian(2, 0.3, 0.999, vecmath.Vec3{X: 1}))
	cloud.Add(centeredGaussian(4, 0.5, 0.999, vecmath.Vec3{Z: 1}))
	skip := make([]bool, cloud.Len())
	skip[id0] = true
	res := Render(cloud, cam, Options{Skip: skip})
	if len(res.Splats) != 1 {
		t.Fatalf("splats after skip = %d", len(res.Splats))
	}
	c := res.Color.At(32, 24)
	if c.Z < 0.5 || c.X > 0.05 {
		t.Errorf("skip did not remove foreground gaussian: %v", c)
	}
}

func TestRenderInactiveGaussiansExcluded(t *testing.T) {
	cam := testCam(64, 48)
	cloud := gauss.NewCloud(1)
	res := Render(cloud, cam, Options{})
	if len(res.Splats) != 0 {
		t.Errorf("an empty cloud rendered %d splats", len(res.Splats))
	}
}

func TestContributionLogging(t *testing.T) {
	cam := testCam(64, 48)
	cloud := gauss.NewCloud(2)
	big := cloud.Add(centeredGaussian(2, 0.4, 0.999, vecmath.Vec3{X: 1}))
	// A tiny, nearly transparent gaussian: almost every pixel it touches sees
	// alpha below threshold.
	faint := centeredGaussian(2, 0.01, 0.002, vecmath.Vec3{Y: 1})
	faintID := cloud.Add(faint)
	res := Render(cloud, cam, Options{LogContribution: true})
	if res.NonContrib == nil {
		t.Fatal("contribution log missing")
	}
	if res.Touched[big] == 0 {
		t.Fatal("big gaussian not touched")
	}
	// The opaque center gaussian must contribute to at least its core pixels.
	if res.NonContrib[big] >= res.Touched[big] {
		t.Error("opaque gaussian logged as fully non-contributory")
	}
	// The faint gaussian must be non-contributory almost everywhere.
	if res.Touched[faintID] > 0 && float64(res.NonContrib[faintID]) < 0.9*float64(res.Touched[faintID]) {
		t.Errorf("faint gaussian: %d/%d non-contributory", res.NonContrib[faintID], res.Touched[faintID])
	}
}

// TestRenderDeterministicAcrossWorkers: a render that a helper joins gives
// the one-shot render's pixels and op counts.
func TestRenderDeterministicAcrossWorkers(t *testing.T) {
	cam := testCam(64, 48)
	cloud := gauss.NewCloud(20)
	for i := 0; i < 20; i++ {
		g := centeredGaussian(1.5+0.2*float64(i), 0.15, 0.7, vecmath.Vec3{X: float64(i) / 20, Y: 0.3, Z: 0.5})
		g.Mean.X = 0.3 * math.Sin(float64(i))
		g.Mean.Y = 0.2 * math.Cos(float64(i)*1.7)
		cloud.Add(g)
	}
	r1 := Render(cloud, cam, Options{})
	ctx := NewRenderContext()
	defer spinHelper(ctx)()
	r8 := ctx.Render(cloud, cam, Options{})
	if d := frame.MeanAbsDiff(r1.Color, r8.Color); d != 0 {
		t.Errorf("a helper changed output by %v", d)
	}
	if r1.BlendOps != r8.BlendOps || r1.AlphaOps != r8.AlphaOps {
		t.Errorf("op counts differ: %d/%d vs %d/%d", r1.BlendOps, r1.AlphaOps, r8.BlendOps, r8.AlphaOps)
	}
}

func TestBuildTilesAssignsAndSorts(t *testing.T) {
	cam := testCam(64, 48) // 4x3 tile grid
	cloud := gauss.NewCloud(2)
	cloud.Add(centeredGaussian(2, 0.05, 0.9, vecmath.Vec3{X: 1}))
	cloud.Add(centeredGaussian(3, 0.05, 0.9, vecmath.Vec3{Y: 1}))
	splats := preprocessInto(nil, cloud, cam, nil)
	tiles := buildTiles(splats, cam.Intr)
	if tiles.TW != 4 || tiles.TH != 3 {
		t.Fatalf("tile grid %dx%d", tiles.TW, tiles.TH)
	}
	// Both project near the center: the tile containing (32,24) is (2,1).
	list := tiles.ListAt(1*tiles.TW + 2)
	if len(list) != 2 {
		t.Fatalf("center tile has %d entries", len(list))
	}
	if splats[list[0]].Depth > splats[list[1]].Depth {
		t.Error("tile list not depth sorted")
	}
	if tiles.TotalEntries() < 2 {
		t.Error("TotalEntries undercounts")
	}
}

func TestBuildTilesCullsOffscreenSplats(t *testing.T) {
	intr := camera.NewIntrinsics(64, 48, math.Pi/3)
	// All four 3-sigma boxes miss the image entirely; clamping would have
	// charged each to a border tile.
	off := []Splat{
		{Mean2D: vecmath.Vec2{X: -40, Y: 20}, Radius: 6, Depth: 1},
		{Mean2D: vecmath.Vec2{X: 120, Y: 20}, Radius: 10, Depth: 1},
		{Mean2D: vecmath.Vec2{X: 30, Y: -25}, Radius: 4, Depth: 2},
		{Mean2D: vecmath.Vec2{X: 30, Y: 90}, Radius: 8, Depth: 2},
	}
	tiles := buildTiles(off, intr)
	if n := tiles.TotalEntries(); n != 0 {
		t.Errorf("off-screen splats produced %d table entries, want 0", n)
	}
	// A splat straddling the left border must keep its on-screen tile.
	border := []Splat{{Mean2D: vecmath.Vec2{X: -2, Y: 8}, Radius: 5, Depth: 1}}
	tiles = buildTiles(border, intr)
	if n := tiles.TotalEntries(); n != 1 {
		t.Fatalf("border splat has %d table entries, want 1", n)
	}
	if len(tiles.ListAt(0)) != 1 {
		t.Error("border splat missing from tile (0,0)")
	}
}

func TestTileCoverageMatchesRadius(t *testing.T) {
	cam := testCam(64, 48)
	cloud := gauss.NewCloud(1)
	// Large gaussian covering the whole image: all tiles get it.
	cloud.Add(centeredGaussian(1.2, 1.5, 0.9, vecmath.Vec3{X: 1}))
	splats := preprocessInto(nil, cloud, cam, nil)
	tiles := buildTiles(splats, cam.Intr)
	for i := 0; i < tiles.NumTiles(); i++ {
		if len(tiles.ListAt(i)) != 1 {
			t.Fatalf("tile %d missing the full-screen gaussian", i)
		}
	}
}
