package vecmath

import (
	"math/rand"
	"testing"
)

func randomPose(rng *rand.Rand) Pose {
	axis := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	return Pose{
		R: QuatFromAxisAngle(axis, rng.Float64()*2.5),
		T: Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
	}
}

func poseNear(a, b Pose, tol float64) bool {
	return a.AngleBetween(b) < tol && a.T.Sub(b.T).Norm() < tol
}

// AngleBetween is a test helper comparing rotations only.
func (p Pose) AngleBetween(q Pose) float64 { return p.R.AngleTo(q.R) }

func TestQuatRotateMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		q := QuatFromAxisAngle(Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, rng.Float64()*3)
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if !vecNear(q.Rotate(v), q.Mat3().MulVec(v), 1e-10) {
			t.Fatalf("quat rotate != matrix rotate")
		}
	}
}

func TestQuatMat3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		q := QuatFromAxisAngle(Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, rng.Float64()*3)
		q2 := QuatFromMat3(q.Mat3())
		if q.AngleTo(q2) > 1e-8 {
			t.Fatalf("roundtrip angle error %v", q.AngleTo(q2))
		}
	}
}

func TestQuatRotationPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 60; i++ {
		q := QuatFromAxisAngle(Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, rng.Float64()*3)
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if !near(q.Rotate(v).Norm(), v.Norm(), 1e-10) {
			t.Fatal("rotation changed vector length")
		}
	}
}

func TestPoseComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 60; i++ {
		p := randomPose(rng)
		q := randomPose(rng)
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		// Compose semantics.
		if !vecNear(p.Compose(q).Apply(v), p.Apply(q.Apply(v)), 1e-9) {
			t.Fatal("compose semantics broken")
		}
		// Inverse.
		if !vecNear(p.Inverse().Apply(p.Apply(v)), v, 1e-9) {
			t.Fatal("inverse broken")
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 80; i++ {
		tw := Twist{
			V: Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			W: Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.8),
		}
		back := LogSE3(ExpSE3(tw))
		if !vecNear(back.V, tw.V, 1e-7) || !vecNear(back.W, tw.W, 1e-7) {
			t.Fatalf("exp/log roundtrip: got %+v want %+v", back, tw)
		}
	}
}

func TestExpZeroIsIdentity(t *testing.T) {
	p := ExpSE3(Twist{})
	if !poseNear(p, PoseIdentity(), 1e-12) {
		t.Errorf("exp(0) = %+v", p)
	}
}

func TestLogIdentityIsZero(t *testing.T) {
	tw := LogSE3(PoseIdentity())
	if tw.Norm() > 1e-12 {
		t.Errorf("log(I) = %+v", tw)
	}
}

func TestRetractSmallStep(t *testing.T) {
	// Retracting by a small twist should move the pose by about the twist
	// magnitude and stay on the manifold (unit quaternion).
	p := randomPose(rand.New(rand.NewSource(12)))
	small := Twist{V: Vec3{1e-3, 0, 0}}
	q := p.Retract(small)
	if !near(q.R.Norm(), 1, 1e-9) {
		t.Error("retract broke quaternion normalization")
	}
	if d := q.T.Sub(p.T).Norm(); d > 2e-3 || d == 0 {
		t.Errorf("retract moved translation by %v", d)
	}
}

func TestPoseCenter(t *testing.T) {
	// A camera looking from (0,0,-5) toward the origin: center must be the
	// world-space camera position regardless of orientation.
	world := Vec3{0, 0, -5}
	view := Pose{R: QuatFromAxisAngle(Vec3{0, 1, 0}, 0.4)}
	view.T = view.R.Rotate(world).Neg()
	if !vecNear(view.Center(), world, 1e-9) {
		t.Errorf("center = %v, want %v", view.Center(), world)
	}
}

func TestTranslationTo(t *testing.T) {
	a := Pose{R: QuatIdentity(), T: Vec3{0, 0, 0}}
	b := Pose{R: QuatIdentity(), T: Vec3{3, 4, 0}}
	// For identity rotations, center = -T.
	if !near(a.TranslationTo(b), 5, 1e-9) {
		t.Errorf("TranslationTo = %v", a.TranslationTo(b))
	}
}
