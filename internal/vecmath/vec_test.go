package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecNear(a, b Vec3, tol float64) bool {
	return near(a.X, b.X, tol) && near(a.Y, b.Y, tol) && near(a.Z, b.Z, tol)
}

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if got := a.Add(b); !vecNear(got, Vec3{-3, 7, 3.5}, eps) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !vecNear(got, Vec3{5, -3, 2.5}, eps) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); !near(got, -4+10+1.5, eps) {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); !vecNear(got, Vec3{2, 4, 6}, eps) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Mul(b); !vecNear(got, Vec3{-4, 10, 1.5}, eps) {
		t.Errorf("Mul = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -1, 2}
	c := a.Cross(b)
	if !near(c.Dot(a), 0, eps) || !near(c.Dot(b), 0, eps) {
		t.Fatalf("cross product not orthogonal: %v", c)
	}
	if got := (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}); !vecNear(got, Vec3{0, 0, 1}, eps) {
		t.Errorf("x cross y = %v, want z", got)
	}
}

func TestVec3Normalized(t *testing.T) {
	v := Vec3{3, 4, 0}.Normalized()
	if !near(v.Norm(), 1, eps) {
		t.Errorf("norm = %v", v.Norm())
	}
	zero := (Vec3{}).Normalized()
	if !vecNear(zero, Vec3{}, 0) {
		t.Errorf("normalized zero = %v", zero)
	}
}

func TestVec3LerpEndpoints(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{-1, 0, 7}
	if got := a.Lerp(b, 0); !vecNear(got, a, eps) {
		t.Errorf("lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); !vecNear(got, b, eps) {
		t.Errorf("lerp 1 = %v", got)
	}
	if got := a.Lerp(b, 0.5); !vecNear(got, Vec3{0, 1, 5}, eps) {
		t.Errorf("lerp 0.5 = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %v", got)
	}
	if got := Clamp(0.25, 0, 1); got != 0.25 {
		t.Errorf("Clamp(0.25,0,1) = %v", got)
	}
	v := Vec3{-2, 0.5, 9}.Clamp(0, 1)
	if !vecNear(v, Vec3{0, 0.5, 1}, 0) {
		t.Errorf("Vec3.Clamp = %v", v)
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !(Vec3{1, 2, 3}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vec3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestVec2Basics(t *testing.T) {
	a := Vec2{3, 4}
	if got := a.Scale(2); !near(got.X, 6, eps) || !near(got.Y, 8, eps) {
		t.Errorf("Scale = %v", got)
	}
}

func TestPropertyCrossAnticommutative(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		return vecNear(a.Cross(b), b.Cross(a).Neg(), 1e-6*(1+a.Norm()*b.Norm()))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestPropertyDotCauchySchwarz(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		return math.Abs(a.Dot(b)) <= a.Norm()*b.Norm()+1e-6
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// quickCfg returns a quick.Config whose float64 values are bounded so
// property tests exercise realistic magnitudes instead of overflow regimes.
func quickCfg() *quick.Config {
	r := rand.New(rand.NewSource(7))
	return &quick.Config{
		MaxCount: 200,
		Rand:     r,
		Values: func(vals []reflectValue, r *rand.Rand) {
			for i := range vals {
				vals[i] = valueOf(r.NormFloat64() * 10)
			}
		},
	}
}
