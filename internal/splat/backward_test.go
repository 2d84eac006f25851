package splat

import (
	"math"
	"math/rand"
	"testing"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/optim"
	"ags/internal/vecmath"
)

func signOf(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// lossOf renders the cloud and evaluates the loss against target without
// computing any gradients.
func lossOf(cloud *gauss.Cloud, cam camera.Camera, target *frame.Frame, lc LossConfig) float64 {
	res := Render(cloud, cam, Options{})
	g := Backward(cloud, cam, res, target, lc, BackwardOptions{})
	return g.Loss
}

// testScene builds a small cloud and a target frame rendered from a slightly
// different cloud, so the loss is non-zero and L1 signs are stable.
func testScene(t *testing.T) (*gauss.Cloud, camera.Camera, *frame.Frame) {
	t.Helper()
	cam := testCam(32, 24)
	rng := rand.New(rand.NewSource(42))
	build := func(perturb float64) *gauss.Cloud {
		r := rand.New(rand.NewSource(7))
		cloud := gauss.NewCloud(6)
		for i := 0; i < 6; i++ {
			g := gauss.Gaussian{
				Mean: vecmath.Vec3{
					X: r.NormFloat64()*0.4 + perturb*rng.NormFloat64()*0.05,
					Y: r.NormFloat64() * 0.3,
					Z: 1.5 + r.Float64(),
				},
				Color: vecmath.Vec3{X: 0.2 + 0.6*r.Float64(), Y: 0.2 + 0.6*r.Float64(), Z: 0.2 + 0.6*r.Float64()},
			}
			g.SetScale(0.15)
			g.SetOpacity(0.6 + 0.3*r.Float64())
			cloud.Add(g)
		}
		return cloud
	}
	gtCloud := build(1)
	gtRes := Render(gtCloud, cam, Options{})
	target := &frame.Frame{Color: gtRes.Color, Depth: gtRes.NormalizedDepth()}
	return build(0), cam, target
}

func TestBackwardColorGradientNumeric(t *testing.T) {
	cloud, cam, target := testScene(t)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{})
	grads := Backward(cloud, cam, res, target, lc, BackwardOptions{GaussianGrads: true})
	const h = 1e-5
	for id := 0; id < cloud.Len(); id++ {
		orig := cloud.At(id).Color.X
		cloud.At(id).Color = vecmath.Vec3{X: orig + h, Y: cloud.At(id).Color.Y, Z: cloud.At(id).Color.Z}
		lp := lossOf(cloud, cam, target, lc)
		cloud.At(id).Color = vecmath.Vec3{X: orig - h, Y: cloud.At(id).Color.Y, Z: cloud.At(id).Color.Z}
		lm := lossOf(cloud, cam, target, lc)
		cloud.At(id).Color = vecmath.Vec3{X: orig, Y: cloud.At(id).Color.Y, Z: cloud.At(id).Color.Z}
		num := (lp - lm) / (2 * h)
		ana := grads.Color[id].X
		if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("gaussian %d color grad: num %v ana %v", id, num, ana)
		}
	}
}

func TestBackwardLogitGradientNumeric(t *testing.T) {
	cloud, cam, target := testScene(t)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{})
	grads := Backward(cloud, cam, res, target, lc, BackwardOptions{GaussianGrads: true})
	const h = 1e-5
	for id := 0; id < cloud.Len(); id++ {
		orig := cloud.At(id).Logit
		cloud.At(id).Logit = orig + h
		lp := lossOf(cloud, cam, target, lc)
		cloud.At(id).Logit = orig - h
		lm := lossOf(cloud, cam, target, lc)
		cloud.At(id).Logit = orig
		num := (lp - lm) / (2 * h)
		ana := grads.Logit[id]
		// L1 kinks and the MinAlpha cutoff make this slightly noisy.
		if math.Abs(num-ana) > 2e-3*(1+math.Abs(num)) {
			t.Errorf("gaussian %d logit grad: num %v ana %v", id, num, ana)
		}
	}
}

func TestBackwardMeanGradientDirection(t *testing.T) {
	cloud, cam, target := testScene(t)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{})
	grads := Backward(cloud, cam, res, target, lc, BackwardOptions{GaussianGrads: true})
	const h = 1e-4
	var dotSum, numNorm, anaNorm float64
	for id := 0; id < cloud.Len(); id++ {
		var num vecmath.Vec3
		for axis := 0; axis < 3; axis++ {
			delta := vecmath.Vec3{}
			switch axis {
			case 0:
				delta.X = h
			case 1:
				delta.Y = h
			case 2:
				delta.Z = h
			}
			mean := cloud.At(id).Mean
			cloud.At(id).Mean = mean.Add(delta)
			lp := lossOf(cloud, cam, target, lc)
			cloud.At(id).Mean = mean.Sub(delta)
			lm := lossOf(cloud, cam, target, lc)
			cloud.At(id).Mean = mean
			d := (lp - lm) / (2 * h)
			switch axis {
			case 0:
				num.X = d
			case 1:
				num.Y = d
			case 2:
				num.Z = d
			}
		}
		dotSum += num.Dot(grads.Mean[id])
		numNorm += num.NormSq()
		anaNorm += grads.Mean[id].NormSq()
	}
	// The analytic mean gradient ignores the covariance's dependence on the
	// mean (standard splatting approximation), so we require strong
	// directional agreement rather than exact equality.
	cos := dotSum / (math.Sqrt(numNorm*anaNorm) + 1e-30)
	if cos < 0.95 {
		t.Errorf("mean gradient cosine similarity %v", cos)
	}
}

func TestBackwardPoseGradientDirection(t *testing.T) {
	cloud, cam, target := testScene(t)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{})
	grads := Backward(cloud, cam, res, target, lc, BackwardOptions{PoseGrads: true})
	const h = 1e-5
	num := make([]float64, 6)
	for axis := 0; axis < 6; axis++ {
		tw := vecmath.Twist{}
		switch axis {
		case 0:
			tw.V.X = h
		case 1:
			tw.V.Y = h
		case 2:
			tw.V.Z = h
		case 3:
			tw.W.X = h
		case 4:
			tw.W.Y = h
		case 5:
			tw.W.Z = h
		}
		camP := cam
		camP.Pose = cam.Pose.Retract(tw)
		lp := lossOf(cloud, camP, target, lc)
		camM := cam
		camM.Pose = cam.Pose.Retract(vecmath.Twist{V: tw.V.Neg(), W: tw.W.Neg()})
		lm := lossOf(cloud, camM, target, lc)
		num[axis] = (lp - lm) / (2 * h)
	}
	ana := []float64{grads.Pose.V.X, grads.Pose.V.Y, grads.Pose.V.Z, grads.Pose.W.X, grads.Pose.W.Y, grads.Pose.W.Z}
	var dot, nn, na float64
	for i := 0; i < 6; i++ {
		dot += num[i] * ana[i]
		nn += num[i] * num[i]
		na += ana[i] * ana[i]
	}
	cos := dot / (math.Sqrt(nn*na) + 1e-30)
	if cos < 0.9 {
		t.Errorf("pose gradient cosine similarity %v (num %v ana %v)", cos, num, ana)
	}
}

func TestBackwardScaleGradientDescends(t *testing.T) {
	// Gradient descent on the isotropic scale must reduce the loss when the
	// cloud's scales are wrong.
	cam := testCam(32, 24)
	gt := gauss.NewCloud(1)
	gt.Add(centeredGaussian(2, 0.25, 0.9, vecmath.Vec3{X: 0.7, Y: 0.4, Z: 0.2}))
	gtRes := Render(gt, cam, Options{})
	target := &frame.Frame{Color: gtRes.Color, Depth: gtRes.NormalizedDepth()}

	cloud := gauss.NewCloud(1)
	cloud.Add(centeredGaussian(2, 0.12, 0.9, vecmath.Vec3{X: 0.7, Y: 0.4, Z: 0.2})) // too small
	lc := DefaultMappingLoss()
	before := lossOf(cloud, cam, target, lc)
	for iter := 0; iter < 60; iter++ {
		res := Render(cloud, cam, Options{})
		grads := Backward(cloud, cam, res, target, lc, BackwardOptions{GaussianGrads: true})
		g := cloud.At(0)
		// Sign-based descent on the single parameter: robust to the L1
		// loss's gradient-magnitude discontinuities.
		g.LogScale -= 0.01 * signOf(grads.LogScale[0])
	}
	after := lossOf(cloud, cam, target, lc)
	if after >= before {
		t.Errorf("scale descent did not reduce loss: %v -> %v", before, after)
	}
	// The scale should have grown toward the target.
	if cloud.At(0).Scale() <= 0.12 {
		t.Errorf("scale did not grow: %v", cloud.At(0).Scale())
	}
}

// TestBackwardScaleFactorIsMeanOfThreeSquares pins the s² factor of the
// log-scale gradient to (s²+s²+s²)/3, the mean of the three per-axis squares
// the Gaussians had when they were anisotropic. For many scales that mean is
// not bitwise s², and a map trained through one drifts away from a map
// trained through the other, so every digest rests on it. The cloud holds
// only such scales, and the full-walk reference spells the mean out.
func TestBackwardScaleFactorIsMeanOfThreeSquares(t *testing.T) {
	cam := testCam(32, 24)
	rng := rand.New(rand.NewSource(11))
	cloud := gauss.NewCloud(10)
	for cloud.Len() < 10 {
		g := *randomCloud(rng, 1).At(0)
		if s := g.Scale(); (s*s+s*s+s*s)/3 != s*s {
			cloud.Add(g)
		}
	}
	tgt := Render(randomCloud(rng, 12), cam, Options{})
	target := &frame.Frame{Color: tgt.Color, Depth: tgt.NormalizedDepth()}
	lc, bo := DefaultMappingLoss(), BackwardOptions{GaussianGrads: true}
	res := Render(cloud, cam, Options{})
	got := Backward(cloud, cam, res, target, lc, bo).LogScale
	want := refBackward(cloud, cam, res, target, lc, bo, false).LogScale
	trained := 0
	for id := range want {
		if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
			t.Fatalf("Gaussian %d: log-scale gradient %v, want %v from the mean of three squares", id, got[id], want[id])
		}
		if want[id] != 0 {
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("no Gaussian has a log-scale gradient: the test pins nothing")
	}
}

func TestBackwardSilhouetteMask(t *testing.T) {
	cloud, cam, target := testScene(t)
	res := Render(cloud, cam, Options{})
	masked := Backward(cloud, cam, res, target, DefaultTrackingLoss(), BackwardOptions{})
	unmasked := Backward(cloud, cam, res, target, DefaultMappingLoss(), BackwardOptions{})
	if masked.Pixels >= unmasked.Pixels {
		t.Errorf("mask did not reduce pixels: %d vs %d", masked.Pixels, unmasked.Pixels)
	}
	if unmasked.Pixels != cam.Intr.W*cam.Intr.H {
		t.Errorf("unmasked pixels = %d", unmasked.Pixels)
	}
}

// TestMaskedPassExcludesNaNSilhouette: a splat whose opacity is NaN blends
// NaN into the silhouette of every pixel of its tiles. The silhouette mask
// keeps a pixel only where its silhouette exceeds the threshold, so those
// pixels are in neither the loss nor Pixels: a training pass over them gives
// a finite loss, Pixels counts exactly the pixels whose silhouette exceeds
// the threshold, and loss and count are the full-walk reference's.
func TestMaskedPassExcludesNaNSilhouette(t *testing.T) {
	cloud, cam, target := testScene(t)
	splats := preprocessInto(nil, cloud, cam, nil)
	// Within the bottom-right tile, so the other tiles keep their pixels.
	splats[0].Mean2D, splats[0].Radius = vecmath.Vec2{X: 28, Y: 20}, 2
	splats[0].Opacity = math.NaN()
	loss := LossConfig{UseSilhouetteMask: true, SilThreshold: 0.5}
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true}
	res, grads := trainSplats(NewRenderContext(), splats, cloud, cam, Options{}, target, loss, bopts)
	var nan, kept int
	for _, sil := range res.Silhouette {
		switch {
		case math.IsNaN(sil):
			nan++
		case sil > loss.SilThreshold:
			kept++
		}
	}
	if nan == 0 || kept == 0 {
		t.Fatalf("%d NaN and %d kept silhouettes: the test exercises nothing", nan, kept)
	}
	if grads.Pixels != kept || math.IsNaN(grads.Loss) || math.IsInf(grads.Loss, 0) {
		t.Errorf("loss %v over %d pixels, want a finite loss over the %d kept (%d NaN silhouettes)", grads.Loss, grads.Pixels, kept, nan)
	}
	ref := refBackward(cloud, cam, res, target, loss, bopts, false)
	if ref.Pixels != grads.Pixels || math.Float64bits(ref.Loss) != math.Float64bits(grads.Loss) {
		t.Errorf("loss %v over %d pixels, the reference's %v over %d", grads.Loss, grads.Pixels, ref.Loss, ref.Pixels)
	}
}

// TestBackwardDeterministicAcrossWorkers: a backward pass that a helper
// joins gives the one-shot pass's loss and gradients.
func TestBackwardDeterministicAcrossWorkers(t *testing.T) {
	cloud, cam, target := testScene(t)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{})
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true}
	g1 := Backward(cloud, cam, res, target, lc, bopts)
	ctx := NewRenderContext()
	defer spinHelper(ctx)()
	g8 := ctx.Backward(cloud, cam, res, target, lc, bopts)
	if math.Abs(g1.Loss-g8.Loss) > 1e-12 {
		t.Errorf("loss differs with a helper: %v vs %v", g1.Loss, g8.Loss)
	}
	for id := range g1.Color {
		if g1.Color[id].Sub(g8.Color[id]).Norm() > 1e-9 {
			t.Fatalf("color grad differs at %d", id)
		}
	}
	if g1.Pose.V.Sub(g8.Pose.V).Norm() > 1e-9 {
		t.Error("pose grad differs with a helper")
	}
}

func TestBackwardEmptySceneIsZero(t *testing.T) {
	cam := testCam(16, 16)
	cloud := gauss.NewCloud(0)
	res := Render(cloud, cam, Options{})
	target := &frame.Frame{Color: frame.NewImage(16, 16), Depth: frame.NewDepthMap(16, 16)}
	g := Backward(cloud, cam, res, target, DefaultMappingLoss(), BackwardOptions{GaussianGrads: true, PoseGrads: true})
	if g.Loss != 0 {
		t.Errorf("empty scene loss = %v", g.Loss)
	}
	if g.Pose.Norm() != 0 {
		t.Error("empty scene produced pose gradient")
	}
}

func TestTrackingConvergesOnSmallOffset(t *testing.T) {
	// End-to-end sanity: gradient descent on the pose recovers a small
	// perturbation. This is the core of 3DGS-SLAM tracking.
	cam := testCam(32, 24)
	cloud := gauss.NewCloud(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		g := gauss.Gaussian{
			Mean:  vecmath.Vec3{X: rng.NormFloat64() * 0.5, Y: rng.NormFloat64() * 0.4, Z: 1.5 + rng.Float64()*1.5},
			Color: vecmath.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()},
		}
		g.SetScale(0.2)
		g.SetOpacity(0.95)
		cloud.Add(g)
	}
	gtRes := Render(cloud, cam, Options{})
	target := &frame.Frame{Color: gtRes.Color, Depth: gtRes.NormalizedDepth()}

	est := cam
	est.Pose = cam.Pose.Retract(vecmath.Twist{V: vecmath.Vec3{X: 0.03, Y: -0.02}, W: vecmath.Vec3{Z: 0.02}})
	startErr := est.Pose.TranslationTo(cam.Pose)

	lc := DefaultMappingLoss()
	adam := optim.NewAdam(2e-3)
	params := make([]float64, 6)
	for iter := 0; iter < 150; iter++ {
		res := Render(cloud, est, Options{})
		grads := Backward(cloud, est, res, target, lc, BackwardOptions{PoseGrads: true})
		g := []float64{grads.Pose.V.X, grads.Pose.V.Y, grads.Pose.V.Z, grads.Pose.W.X, grads.Pose.W.Y, grads.Pose.W.Z}
		prev := make([]float64, 6)
		copy(prev, params)
		adam.Step(params, g)
		step := vecmath.Twist{
			V: vecmath.Vec3{X: params[0] - prev[0], Y: params[1] - prev[1], Z: params[2] - prev[2]},
			W: vecmath.Vec3{X: params[3] - prev[3], Y: params[4] - prev[4], Z: params[5] - prev[5]},
		}
		est.Pose = est.Pose.Retract(step)
	}
	endErr := est.Pose.TranslationTo(cam.Pose)
	if endErr > startErr*0.5 {
		t.Errorf("tracking did not converge: %v -> %v", startErr, endErr)
	}
}
