package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func mat3Near(a, b Mat3, tol float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestMat3MulIdentity(t *testing.T) {
	m := Mat3{1, 2, 3, 4, 5, 6, 7, 8, 10}
	if got := m.Mul(Identity3()); !mat3Near(got, m, eps) {
		t.Errorf("m*I = %v", got)
	}
	if got := Identity3().Mul(m); !mat3Near(got, m, eps) {
		t.Errorf("I*m = %v", got)
	}
}

func TestMat3MulVec(t *testing.T) {
	m := Mat3{1, 0, 0, 0, 2, 0, 0, 0, 3}
	if got := m.MulVec(Vec3{1, 1, 1}); !vecNear(got, Vec3{1, 2, 3}, eps) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestSkewMatchesCross(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		u := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if !vecNear(Skew(v).MulVec(u), v.Cross(u), 1e-12) {
			t.Fatalf("skew(%v)*%v != cross", v, u)
		}
	}
}

func TestMat2Inverse(t *testing.T) {
	m := Mat2{3, 1, 2, 4}
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("singular")
	}
	// m * inv, written out.
	p := Mat2{
		m.M00*inv.M00 + m.M01*inv.M10, m.M00*inv.M01 + m.M01*inv.M11,
		m.M10*inv.M00 + m.M11*inv.M10, m.M10*inv.M01 + m.M11*inv.M11,
	}
	if !near(p.M00, 1, eps) || !near(p.M11, 1, eps) || !near(p.M01, 0, eps) || !near(p.M10, 0, eps) {
		t.Errorf("m*inv = %+v", p)
	}
}

func TestMat2Eigenvalues(t *testing.T) {
	// Symmetric matrix with known eigenvalues 5 and 1.
	m := Mat2{3, 2, 2, 3}
	l1, l2 := m.Eigenvalues()
	if !near(l1, 5, eps) || !near(l2, 1, eps) {
		t.Errorf("eigenvalues = %v, %v", l1, l2)
	}
}

func TestOuterProduct(t *testing.T) {
	m := OuterProduct(Vec3{1, 2, 3}, Vec3{4, 5, 6})
	want := Mat3{4, 5, 6, 8, 10, 12, 12, 15, 18}
	if !mat3Near(m, want, eps) {
		t.Errorf("outer = %v", m)
	}
}
