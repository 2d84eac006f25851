package camera

import (
	"math"
	"math/rand"
	"testing"

	"ags/internal/vecmath"
)

func testIntr() Intrinsics { return NewIntrinsics(64, 48, math.Pi/3) }

func TestNewIntrinsicsCenter(t *testing.T) {
	in := testIntr()
	if in.Cx != 32 || in.Cy != 24 {
		t.Errorf("principal point = (%v,%v)", in.Cx, in.Cy)
	}
	if err := in.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsBadIntrinsics(t *testing.T) {
	if err := (Intrinsics{W: 0, H: 10, Fx: 1, Fy: 1}).Validate(); err == nil {
		t.Error("zero width accepted")
	}
	if err := (Intrinsics{W: 10, H: 10, Fx: -1, Fy: 1}).Validate(); err == nil {
		t.Error("negative focal accepted")
	}
}

func TestProjectUnprojectRoundTrip(t *testing.T) {
	in := testIntr()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := vecmath.Vec3{
			X: rng.NormFloat64(),
			Y: rng.NormFloat64(),
			Z: 0.5 + rng.Float64()*5,
		}
		px, ok := in.Project(p)
		if !ok {
			t.Fatal("projection of forward point failed")
		}
		back := in.Unproject(px, p.Z)
		if back.Sub(p).Norm() > 1e-9 {
			t.Fatalf("roundtrip error: %v vs %v", back, p)
		}
	}
}

func TestProjectBehindCamera(t *testing.T) {
	in := testIntr()
	if _, ok := in.Project(vecmath.Vec3{X: 0, Y: 0, Z: -1}); ok {
		t.Error("point behind camera projected")
	}
	if _, ok := in.Project(vecmath.Vec3{X: 0, Y: 0, Z: 0}); ok {
		t.Error("point on camera plane projected")
	}
}

func TestCenterProjectsToPrincipalPoint(t *testing.T) {
	in := testIntr()
	px, ok := in.Project(vecmath.Vec3{Z: 2})
	if !ok || math.Abs(px.X-in.Cx) > 1e-12 || math.Abs(px.Y-in.Cy) > 1e-12 {
		t.Errorf("optical axis projects to %v", px)
	}
}

func TestProjectionJacobianNumeric(t *testing.T) {
	in := testIntr()
	rng := rand.New(rand.NewSource(2))
	const h = 1e-6
	for i := 0; i < 50; i++ {
		p := vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: 1 + rng.Float64()*4}
		du, dv := in.ProjectionJacobian(p)
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
			p1, _ := in.Project(p.Add(delta))
			p0, _ := in.Project(p.Sub(delta))
			numU := (p1.X - p0.X) / (2 * h)
			numV := (p1.Y - p0.Y) / (2 * h)
			var anaU, anaV float64
			switch axis {
			case 0:
				anaU, anaV = du.X, dv.X
			case 1:
				anaU, anaV = du.Y, dv.Y
			case 2:
				anaU, anaV = du.Z, dv.Z
			}
			if math.Abs(numU-anaU) > 1e-4*(1+math.Abs(numU)) ||
				math.Abs(numV-anaV) > 1e-4*(1+math.Abs(numV)) {
				t.Fatalf("jacobian mismatch axis %d: num (%v,%v) ana (%v,%v)", axis, numU, numV, anaU, anaV)
			}
		}
	}
}

func TestScaledPreservesRays(t *testing.T) {
	in := testIntr()
	half := in.Scaled(2)
	if half.W != in.W/2 || half.H != in.H/2 {
		t.Fatalf("scaled size = %dx%d", half.W, half.H)
	}
	// The same ray direction should come out of corresponding pixels.
	p := in.Unproject(vecmath.Vec2{X: 10, Y: 8}, 1)
	q := half.Unproject(vecmath.Vec2{X: 5, Y: 4}, 1)
	if p.Sub(q).Norm() > 1e-9 {
		t.Errorf("scaled unproject mismatch: %v vs %v", p, q)
	}
}

func TestCameraWorldRoundTrip(t *testing.T) {
	in := testIntr()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		cam := Camera{
			Intr: in,
			Pose: vecmath.Pose{
				R: vecmath.QuatFromAxisAngle(vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}, rng.Float64()),
				T: vecmath.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
			},
		}
		// Pick a world point guaranteed in front of the camera.
		local := vecmath.Vec3{X: rng.NormFloat64() * 0.3, Y: rng.NormFloat64() * 0.3, Z: 1 + rng.Float64()*3}
		world := cam.Pose.Inverse().Apply(local)
		pc := cam.Pose.Apply(world)
		px, ok := in.Project(pc)
		if !ok {
			t.Fatal("projection failed")
		}
		back := cam.Pose.Inverse().Apply(in.Unproject(px, pc.Z))
		if back.Sub(world).Norm() > 1e-8 {
			t.Fatalf("world roundtrip error %v", back.Sub(world).Norm())
		}
	}
}

func TestRayThroughPixelHitsUnprojection(t *testing.T) {
	in := testIntr()
	cam := Camera{Intr: in, Pose: vecmath.Pose{
		R: vecmath.QuatFromAxisAngle(vecmath.Vec3{Y: 1}, 0.3),
		T: vecmath.Vec3{X: 0.5, Y: -0.2, Z: 1},
	}}
	origin, dir := cam.Ray(10, 20)
	// Marching 2.5 units along the ray must agree with unprojecting depth
	// equal to the camera-space Z of that point.
	pWorld := origin.Add(dir.Scale(2.5))
	pCam := cam.Pose.Apply(pWorld)
	px, _ := cam.Intr.Project(pCam)
	if math.Abs(px.X-10.5) > 1e-6 || math.Abs(px.Y-20.5) > 1e-6 {
		t.Errorf("ray does not pass through pixel center: %v", px)
	}
}

func TestInImage(t *testing.T) {
	in := testIntr()
	cases := []struct {
		px   vecmath.Vec2
		want bool
	}{
		{vecmath.Vec2{X: 0, Y: 0}, true},
		{vecmath.Vec2{X: 63.9, Y: 47.9}, true},
		{vecmath.Vec2{X: 64, Y: 0}, false},
		{vecmath.Vec2{X: -0.1, Y: 5}, false},
		{vecmath.Vec2{X: 5, Y: 48}, false},
	}
	for _, c := range cases {
		if got := in.InImage(c.px); got != c.want {
			t.Errorf("InImage(%v) = %v", c.px, got)
		}
	}
}
