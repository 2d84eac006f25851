package scene

import (
	"math"
	"math/rand"

	"ags/internal/vecmath"
)

// LookAt builds a world-to-camera pose for a camera at eye looking toward
// target, with the image x axis horizontal relative to world up (+Y).
func LookAt(eye, target vecmath.Vec3) vecmath.Pose {
	up := vecmath.Vec3{Y: 1}
	zc := target.Sub(eye).Normalized()
	if math.Abs(zc.Dot(up)) > 0.999 {
		up = vecmath.Vec3{X: 1} // forward (anti)parallel to up: pick another
	}
	xc := zc.Cross(up).Normalized()
	yc := zc.Cross(xc).Normalized()
	r := vecmath.Mat3{
		xc.X, xc.Y, xc.Z,
		yc.X, yc.Y, yc.Z,
		zc.X, zc.Y, zc.Z,
	}
	q := vecmath.QuatFromMat3(r)
	return vecmath.Pose{R: q, T: q.Rotate(eye).Neg()}
}

// Trajectory is a sequence of world-to-camera poses.
type Trajectory []vecmath.Pose

// MotionScript parameterizes a camera path: eye and look-at target as
// functions of normalized time u in [0,1], plus per-frame pose jitter that
// emulates hand-held / platform vibration.
type MotionScript struct {
	Eye         func(u float64) vecmath.Vec3
	Target      func(u float64) vecmath.Vec3
	JitterTrans float64 // stddev of per-frame translation noise (meters)
	JitterAngle float64 // stddev of per-frame rotation noise (radians)
	Seed        int64
	// Span limits the fraction of the path covered (0 or 1 = whole path).
	// Dataset generation sets Span = n/RefFrames for short sequences so the
	// per-frame motion matches a full-length capture instead of compressing
	// the entire trajectory into a handful of frames.
	Span float64
}

// RefFrames is the reference sequence length: a full-length capture covers
// the whole scripted path in this many frames.
const RefFrames = 40

// Build samples n poses from the script.
func (ms MotionScript) Build(n int) Trajectory {
	rng := rand.New(rand.NewSource(ms.Seed))
	span := ms.Span
	if span <= 0 || span > 1 {
		span = 1
	}
	traj := make(Trajectory, n)
	for i := 0; i < n; i++ {
		u := 0.0
		if n > 1 {
			u = span * float64(i) / float64(n-1)
		}
		pose := LookAt(ms.Eye(u), ms.Target(u))
		if ms.JitterTrans > 0 || ms.JitterAngle > 0 {
			tw := vecmath.Twist{
				V: vecmath.Vec3{
					X: rng.NormFloat64() * ms.JitterTrans,
					Y: rng.NormFloat64() * ms.JitterTrans,
					Z: rng.NormFloat64() * ms.JitterTrans,
				},
				W: vecmath.Vec3{
					X: rng.NormFloat64() * ms.JitterAngle,
					Y: rng.NormFloat64() * ms.JitterAngle,
					Z: rng.NormFloat64() * ms.JitterAngle,
				},
			}
			pose = pose.Retract(tw)
		}
		traj[i] = pose
	}
	return traj
}

// orbit returns an eye function circling center at the given radius/height,
// sweeping totalAngle radians.
func orbit(center vecmath.Vec3, radius, height, startAngle, totalAngle float64) func(float64) vecmath.Vec3 {
	return func(u float64) vecmath.Vec3 {
		a := startAngle + u*totalAngle
		return vecmath.Vec3{
			X: center.X + radius*math.Cos(a),
			Y: center.Y + height,
			Z: center.Z + radius*math.Sin(a),
		}
	}
}

// waypoints returns a piecewise-linear path through the points with
// Catmull-Rom-style smoothing disabled (linear is fine at SLAM frame rates).
func waypoints(pts ...vecmath.Vec3) func(float64) vecmath.Vec3 {
	return func(u float64) vecmath.Vec3 {
		if len(pts) == 1 {
			return pts[0]
		}
		s := u * float64(len(pts)-1)
		i := int(s)
		if i >= len(pts)-1 {
			return pts[len(pts)-1]
		}
		f := s - float64(i)
		return pts[i].Lerp(pts[i+1], f)
	}
}

// fixed returns a constant position.
func fixed(p vecmath.Vec3) func(float64) vecmath.Vec3 {
	return func(float64) vecmath.Vec3 { return p }
}
