package gauss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ags/internal/vecmath"
)

func TestOpacityRoundTrip(t *testing.T) {
	var g Gaussian
	for _, o := range []float64{0.01, 0.25, 0.5, 0.9, 0.999} {
		g.SetOpacity(o)
		if math.Abs(g.Opacity()-o) > 1e-9 {
			t.Errorf("opacity roundtrip %v -> %v", o, g.Opacity())
		}
	}
	// Extremes clamp instead of producing infinities.
	g.SetOpacity(0)
	if math.IsInf(g.Logit, 0) || g.Opacity() <= 0 {
		t.Error("opacity 0 produced invalid logit")
	}
	g.SetOpacity(1)
	if math.IsInf(g.Logit, 0) || g.Opacity() >= 1 {
		t.Error("opacity 1 produced invalid logit")
	}
}

func TestScaleRoundTrip(t *testing.T) {
	var g Gaussian
	s := vecmath.Vec3{X: 0.02, Y: 0.5, Z: 3}
	g.SetScale(s)
	got := g.Scale()
	if got.Sub(s).Norm() > 1e-9 {
		t.Errorf("scale roundtrip %v -> %v", s, got)
	}
}

func TestCov3IsSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g := Gaussian{
			Rot: vecmath.QuatFromAxisAngle(
				vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
				rng.Float64()*3),
		}
		g.SetScale(vecmath.Vec3{X: 0.1 + rng.Float64(), Y: 0.1 + rng.Float64(), Z: 0.1 + rng.Float64()})
		cov := g.Cov3()
		// Symmetry.
		if math.Abs(cov[1]-cov[3]) > 1e-12 ||
			math.Abs(cov[2]-cov[6]) > 1e-12 ||
			math.Abs(cov[5]-cov[7]) > 1e-12 {
			t.Fatal("covariance not symmetric")
		}
		// The rotation's columns are the eigenvectors and the squared scales
		// (all positive) the eigenvalues: R^T cov R is diag(s^2).
		r, s := g.Rot.Mat3(), g.Scale()
		diag := r.Transpose().Mul(cov).Mul(r)
		want := vecmath.Diag3(vecmath.Vec3{X: s.X * s.X, Y: s.Y * s.Y, Z: s.Z * s.Z})
		for j := range diag {
			if math.Abs(diag[j]-want[j]) > 1e-9 {
				t.Fatalf("R^T cov R = %v, want diag(scales^2) %v", diag, want)
			}
		}
	}
}

func TestCloudAddPrune(t *testing.T) {
	c := NewCloud(4)
	id0 := c.Add(Gaussian{Rot: vecmath.QuatIdentity()})
	id1 := c.Add(Gaussian{Rot: vecmath.QuatIdentity()})
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d,%d", id0, id1)
	}
	if c.NumActive() != 2 {
		t.Fatalf("NumActive = %d", c.NumActive())
	}
	c.Prune(id0)
	if c.IsActive(id0) || !c.IsActive(id1) {
		t.Error("prune toggled wrong gaussian")
	}
	if c.NumActive() != 1 || c.Len() != 2 {
		t.Errorf("NumActive=%d Len=%d", c.NumActive(), c.Len())
	}
	// IDs stay stable after pruning.
	if c.At(id1) == nil {
		t.Error("stable ID lookup failed")
	}
	// Out-of-range prune is a no-op.
	c.Prune(-1)
	c.Prune(99)
}

func TestCloudCloneIndependent(t *testing.T) {
	c := NewCloud(1)
	c.Add(Gaussian{Rot: vecmath.QuatIdentity(), Color: vecmath.Vec3{X: 1}})
	cp := c.Clone()
	cp.At(0).Color = vecmath.Vec3{Y: 1}
	cp.Prune(0)
	if c.At(0).Color.X != 1 || !c.IsActive(0) {
		t.Error("clone aliases original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := NewCloud(1)
	c.Add(Gaussian{Rot: vecmath.QuatIdentity()})
	if err := c.Validate(); err != nil {
		t.Fatalf("valid cloud rejected: %v", err)
	}
	c.At(0).Mean.X = math.NaN()
	if err := c.Validate(); err == nil {
		t.Error("NaN mean accepted")
	}
	c.At(0).Mean.X = 0
	c.At(0).Rot = vecmath.Quat{W: 2}
	if err := c.Validate(); err == nil {
		t.Error("non-unit quaternion accepted")
	}
}

func TestSigmoidProperties(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 30) // bound the domain so 1-sigmoid stays representable
		s := Sigmoid(x)
		if s <= 0 || s >= 1 {
			return false
		}
		// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
		return math.Abs(Sigmoid(-x)-(1-s)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSigmoidGradNumeric(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{-4, -1, 0, 0.5, 2, 6} {
		num := (Sigmoid(x+h) - Sigmoid(x-h)) / (2 * h)
		ana := SigmoidGrad(Sigmoid(x))
		if math.Abs(num-ana) > 1e-6 {
			t.Errorf("grad at %v: num %v ana %v", x, num, ana)
		}
	}
}
