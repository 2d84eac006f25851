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
	for _, s := range []float64{0.02, 0.5, 3} {
		g.SetScale(s)
		if got := g.Scale(); math.Abs(got-s) > 1e-9*s {
			t.Errorf("scale roundtrip %v -> %v", s, got)
		}
	}
	// A non-positive scale clamps instead of producing an infinite log.
	g.SetScale(0)
	if math.IsInf(g.LogScale, 0) || g.Scale() <= 0 {
		t.Error("scale 0 produced an invalid log-scale")
	}
}

// TestCov3IsSymmetricPSD: the covariance is symmetric with every eigenvalue
// s², and, being isotropic, it looks the same from every orientation:
// Rᵀ·Σ·R is diag(s², s², s²) for any rotation R.
func TestCov3IsSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		var g Gaussian
		g.SetScale(0.1 + rng.Float64())
		cov := IsotropicCov(g.Scale())
		// Symmetry.
		if cov[1] != cov[3] || cov[2] != cov[6] || cov[5] != cov[7] {
			t.Fatal("covariance not symmetric")
		}
		r := vecmath.QuatFromAxisAngle(
			vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
			rng.Float64()*3).Mat3()
		s2 := g.Scale() * g.Scale()
		diag := r.Transpose().Mul(cov).Mul(r)
		want := vecmath.Diag3(vecmath.Vec3{X: s2, Y: s2, Z: s2})
		for j := range diag {
			if math.Abs(diag[j]-want[j]) > 1e-9 {
				t.Fatalf("R^T cov R = %v, want diag(scale^2) %v", diag, want)
			}
		}
	}
}

// TestCov3IsotropicBitwise pins IsotropicCov to the covariance the map's
// Gaussians had when they carried a rotation, always the identity, and three
// equal log-scales: R·diag(s², s², s²)·Rᵀ with R the identity quaternion's
// matrix, multiplied out in full. Every render's projection starts from this
// matrix, so a "simpler" IsotropicCov that moves one bit moves every digest.
func TestCov3IsotropicBitwise(t *testing.T) {
	r := vecmath.QuatIdentity().Mat3()
	for i := -80; i <= 80; i++ {
		for _, ls := range []float64{0.25 * float64(i), 0.25*float64(i) + 0.0123456789} {
			if ls > 20 {
				continue
			}
			g := Gaussian{LogScale: ls}
			s := math.Exp(ls)
			want := r.Mul(vecmath.Diag3(vecmath.Vec3{X: s * s, Y: s * s, Z: s * s})).Mul(r.Transpose())
			got := IsotropicCov(g.Scale())
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("log-scale %v: IsotropicCov = %v, want R·diag(s²)·Rᵀ = %v bit for bit", ls, got, want)
				}
			}
		}
	}
}

func TestCloudAddPrune(t *testing.T) {
	c := NewCloud(4)
	id0 := c.Add(Gaussian{Logit: -5})
	id1 := c.Add(Gaussian{Logit: 5})
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d,%d", id0, id1)
	}
	if c.NumActive() != 2 {
		t.Fatalf("NumActive = %d", c.NumActive())
	}
	remap, n := c.Remove(func(g *Gaussian) bool { return g.Opacity() < 0.5 })
	if n != 1 || c.Len() != 1 || c.NumActive() != 1 {
		t.Fatalf("removed %d, Len=%d NumActive=%d", n, c.Len(), c.NumActive())
	}
	if remap[id1] != 0 || c.At(0).Logit != 5 {
		t.Errorf("removal kept the wrong Gaussian (remap %v)", remap)
	}
}

func TestCloudCloneIndependent(t *testing.T) {
	c := NewCloud(1)
	c.Add(Gaussian{Color: vecmath.Vec3{X: 1}})
	cp := c.Clone()
	cp.At(0).Color = vecmath.Vec3{Y: 1}
	cp.Remove(func(*Gaussian) bool { return true })
	if c.Len() != 1 || c.At(0).Color.X != 1 {
		t.Error("clone aliases original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := NewCloud(1)
	c.Add(Gaussian{})
	if err := c.Validate(); err != nil {
		t.Fatalf("valid cloud rejected: %v", err)
	}
	c.At(0).Mean.X = math.NaN()
	if err := c.Validate(); err == nil {
		t.Error("NaN mean accepted")
	}
	c.At(0).Mean.X = 0
	c.At(0).LogScale = math.Inf(1)
	if err := c.Validate(); err == nil {
		t.Error("infinite log-scale accepted")
	}
	c.At(0).LogScale = 0
	c.At(0).Logit = math.NaN()
	if err := c.Validate(); err == nil {
		t.Error("NaN logit accepted")
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
