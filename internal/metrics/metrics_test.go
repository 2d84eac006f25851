package metrics

import (
	"math"
	"math/rand"
	"testing"

	"ags/internal/frame"
	"ags/internal/vecmath"
)

func TestPSNRIdenticalInfinite(t *testing.T) {
	a := frame.NewImage(8, 8)
	p, err := PSNR(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p, 1) {
		t.Errorf("identical PSNR = %v", p)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	a := frame.NewImage(4, 4)
	b := frame.NewImage(4, 4)
	for i := range b.Pix {
		b.Pix[i] = vecmath.Vec3{X: 0.1, Y: 0.1, Z: 0.1}
	}
	// MSE = 0.01 -> PSNR = 20 dB.
	p, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-20) > 1e-9 {
		t.Errorf("PSNR = %v, want 20", p)
	}
}

func TestPSNRSizeMismatch(t *testing.T) {
	if _, err := PSNR(frame.NewImage(4, 4), frame.NewImage(5, 4)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestPSNRMonotone(t *testing.T) {
	a := frame.NewImage(8, 8)
	small := frame.NewImage(8, 8)
	big := frame.NewImage(8, 8)
	for i := range a.Pix {
		small.Pix[i] = vecmath.Vec3{X: 0.05}
		big.Pix[i] = vecmath.Vec3{X: 0.3}
	}
	ps, _ := PSNR(a, small)
	pb, _ := PSNR(a, big)
	if ps <= pb {
		t.Errorf("PSNR not monotone: small-err %v <= big-err %v", ps, pb)
	}
}

func TestAlignRigidRecoversTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := vecmath.Pose{
		R: vecmath.QuatFromAxisAngle(vecmath.Vec3{X: 0.3, Y: 1, Z: -0.2}, 0.7),
		T: vecmath.Vec3{X: 1.5, Y: -0.5, Z: 2},
	}
	var src, dst []vecmath.Vec3
	for i := 0; i < 30; i++ {
		p := vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		src = append(src, p)
		dst = append(dst, truth.Apply(p))
	}
	got, err := AlignRigid(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got.Apply(src[i]).Sub(dst[i]).Norm() > 1e-6 {
			t.Fatalf("alignment residual too large at %d", i)
		}
	}
}

func TestAlignRigidDegenerate(t *testing.T) {
	if _, err := AlignRigid(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := AlignRigid(make([]vecmath.Vec3, 2), make([]vecmath.Vec3, 3)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestATERMSEPerfectTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var traj []vecmath.Pose
	for i := 0; i < 10; i++ {
		traj = append(traj, vecmath.Pose{
			R: vecmath.QuatFromAxisAngle(vecmath.Vec3{Y: 1}, rng.Float64()),
			T: vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
		})
	}
	ate, err := ATERMSE(traj, traj)
	if err != nil {
		t.Fatal(err)
	}
	if ate > 1e-9 {
		t.Errorf("perfect trajectory ATE = %v", ate)
	}
}

func TestATERMSEInvariantToRigidOffset(t *testing.T) {
	// ATE aligns before measuring: a globally transformed estimate of a
	// perfect trajectory must still score ~0.
	rng := rand.New(rand.NewSource(3))
	var gt, est []vecmath.Pose
	offset := vecmath.Pose{
		R: vecmath.QuatFromAxisAngle(vecmath.Vec3{X: 1, Y: 0.5}, 0.4),
		T: vecmath.Vec3{X: 3, Y: 1, Z: -2},
	}
	for i := 0; i < 12; i++ {
		p := vecmath.Pose{
			R: vecmath.QuatFromAxisAngle(vecmath.Vec3{Y: 1}, rng.Float64()*2),
			T: vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
		}
		gt = append(gt, p)
		est = append(est, p.Compose(offset))
	}
	ate, err := ATERMSE(est, gt)
	if err != nil {
		t.Fatal(err)
	}
	if ate > 1e-6 {
		t.Errorf("rigidly offset trajectory ATE = %v", ate)
	}
}

func TestATERMSEKnownError(t *testing.T) {
	// Trajectory with symmetric +/- d perturbations around a straight line;
	// alignment cannot remove them, RMSE ~ d.
	var gt, est []vecmath.Pose
	d := 0.05
	for i := 0; i < 20; i++ {
		p := vecmath.Pose{R: vecmath.QuatIdentity(), T: vecmath.Vec3{X: float64(i) * 0.1}}
		gt = append(gt, p)
		e := p
		if i%2 == 0 {
			e.T.Y += d
		} else {
			e.T.Y -= d
		}
		est = append(est, e)
	}
	ate, err := ATERMSE(est, gt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ate-d) > 0.01 {
		t.Errorf("ATE = %v, want about %v", ate, d)
	}
}

// pointwiseATE is the reference the moments are held to: Horn's alignment
// from centroids and a cross-covariance summed over the points themselves,
// then the residual summed point by point.
func pointwiseATE(est, gt []vecmath.Pose) float64 {
	src := make([]vecmath.Vec3, len(est))
	dst := make([]vecmath.Vec3, len(gt))
	var cs, cd vecmath.Vec3
	for i := range est {
		src[i], dst[i] = est[i].Center(), gt[i].Center()
		cs, cd = cs.Add(src[i]), cd.Add(dst[i])
	}
	align := vecmath.PoseIdentity()
	if len(src) >= 3 {
		cs, cd = cs.Scale(1/float64(len(src))), cd.Scale(1/float64(len(src)))
		var m ATEMoments
		for i := range src {
			// One point per moment set at the centroids: Align then solves
			// Horn's form on Σ(s-cs)(d-cd)ᵀ, summed over the points here.
			m.Cross = m.Cross.Add(vecmath.OuterProduct(src[i].Sub(cs), dst[i].Sub(cd)))
		}
		m.N, m.OriginEst, m.OriginGT = len(src), cs, cd
		align = m.Align()
	}
	var sq float64
	for i := range src {
		sq += align.Apply(src[i]).Sub(dst[i]).NormSq()
	}
	return math.Sqrt(sq / float64(len(src)))
}

// TestATEMomentsMatchPointwise: the ATE solved from running moments is the
// point-wise one to 1e-9 relative, for one, two and three poses (below three
// nothing is aligned), for a long trajectory, and for trajectories 10³ m from
// the world origin, where raw moments would cancel away the error they carry.
func TestATEMomentsMatchPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	offset := vecmath.Pose{
		R: vecmath.QuatFromAxisAngle(vecmath.Vec3{X: 0.2, Y: 1, Z: 0.3}, 0.6),
		T: vecmath.Vec3{X: 0.4, Y: -0.3, Z: 0.2},
	}
	far := vecmath.Vec3{X: 1e3, Y: -1e3, Z: 1e3}
	for _, tc := range []struct {
		n      int
		origin vecmath.Vec3
	}{{1, vecmath.Vec3{}}, {2, vecmath.Vec3{}}, {3, vecmath.Vec3{}}, {500, vecmath.Vec3{}}, {3, far}, {500, far}} {
		var est, gt []vecmath.Pose
		for i := 0; i < tc.n; i++ {
			c := tc.origin.Add(vecmath.Vec3{X: math.Sin(float64(i) / 40), Y: 0.3 * rng.NormFloat64(), Z: float64(i) / 200})
			g := vecmath.Pose{R: vecmath.QuatFromAxisAngle(vecmath.Vec3{Y: 1}, rng.Float64())}
			g.T = g.R.Rotate(c).Neg() // centre c
			gt = append(gt, g)
			noise := vecmath.Vec3{X: 0.05 * rng.NormFloat64(), Y: 0.05 * rng.NormFloat64(), Z: 0.05 * rng.NormFloat64()}
			e := g.Compose(offset)
			e.T = e.T.Add(noise)
			est = append(est, e)
		}
		got, err := ATERMSE(est, gt)
		if err != nil {
			t.Fatal(err)
		}
		want := pointwiseATE(est, gt)
		if rel := math.Abs(got-want) / want; !(rel <= 1e-9) {
			t.Errorf("n=%d at %v: moments give %.17g, point-wise %.17g (relative error %.2g)", tc.n, tc.origin, got, want, rel)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	truth := map[int]bool{1: true, 2: true, 3: true}
	pred := map[int]bool{1: true, 2: true, 9: true, 10: true}
	// 2 of 4 predictions are wrong.
	if got := FalsePositiveRate(pred, truth); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FP rate = %v", got)
	}
	if got := FalsePositiveRate(nil, truth); got != 0 {
		t.Errorf("empty predictions FP = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{5, 0, -3}); math.Abs(got-5) > 1e-12 {
		t.Errorf("GeoMean with non-positive entries = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}
