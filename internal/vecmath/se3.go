package vecmath

import "math"

// Pose is a rigid-body transform (element of SE(3)) mapping world coordinates
// into the frame of the pose: p_local = R * p_world + T. For camera poses this
// is the world-to-camera ("view") convention used throughout the renderer.
type Pose struct {
	R Quat
	T Vec3
}

// PoseIdentity returns the identity transform.
func PoseIdentity() Pose { return Pose{R: QuatIdentity()} }

// Apply maps a world point into the pose's local frame.
func (p Pose) Apply(v Vec3) Vec3 { return p.R.Rotate(v).Add(p.T) }

// Compose returns the transform that applies q first, then p
// (result.Apply(x) == p.Apply(q.Apply(x))).
func (p Pose) Compose(q Pose) Pose {
	return Pose{R: p.R.Mul(q.R).Normalized(), T: p.R.Rotate(q.T).Add(p.T)}
}

// Inverse returns the inverse transform.
func (p Pose) Inverse() Pose {
	ri := p.R.Conj()
	return Pose{R: ri, T: ri.Rotate(p.T).Neg()}
}

// Twist is an element of se(3): V is the translational velocity and W the
// rotational velocity (axis-angle). It is the tangent-space parameterization
// the tracking optimizer works in.
type Twist struct {
	V Vec3
	W Vec3
}

// Add returns the component-wise sum t + u.
func (t Twist) Add(u Twist) Twist { return Twist{t.V.Add(u.V), t.W.Add(u.W)} }

// Norm returns the Euclidean norm of the stacked 6-vector.
func (t Twist) Norm() float64 { return math.Sqrt(t.V.NormSq() + t.W.NormSq()) }

// ExpSE3 maps a twist to a rigid transform via the matrix exponential.
func ExpSE3(t Twist) Pose {
	theta := t.W.Norm()
	r := QuatFromAxisAngle(t.W, theta)
	var vmat Mat3
	if theta < 1e-9 {
		vmat = Identity3()
	} else {
		k := Skew(t.W.Scale(1 / theta))
		a := (1 - math.Cos(theta)) / theta
		b := (theta - math.Sin(theta)) / theta
		vmat = Identity3().Add(k.Scale(a)).Add(k.Mul(k).Scale(b))
	}
	return Pose{R: r, T: vmat.MulVec(t.V)}
}

// LogSE3 maps a rigid transform to its twist (inverse of ExpSE3).
func LogSE3(p Pose) Twist {
	q := p.R.Normalized()
	w := clamp(q.W, -1, 1)
	theta := 2 * math.Acos(math.Abs(w))
	var axis Vec3
	s := math.Sqrt(1 - w*w)
	if s > 1e-9 {
		axis = Vec3{q.X, q.Y, q.Z}.Scale(1 / s)
		if q.W < 0 {
			axis = axis.Neg()
		}
	}
	wvec := axis.Scale(theta)
	var vinv Mat3
	if theta < 1e-9 {
		vinv = Identity3()
	} else {
		k := Skew(axis)
		half := theta / 2
		cot := half / math.Tan(half)
		vinv = Identity3().Add(k.Scale(-half)).Add(k.Mul(k).Scale(1 - cot))
	}
	return Twist{V: vinv.MulVec(p.T), W: wvec}
}

// Retract perturbs the pose by the twist on the left: exp(t) * p. This is the
// update rule used by the pose optimizers.
func (p Pose) Retract(t Twist) Pose {
	return ExpSE3(t).Compose(p)
}

// TranslationTo returns the Euclidean distance between the camera centers of
// p and q (the centers are -R^T T in the world frame).
func (p Pose) TranslationTo(q Pose) float64 {
	cp := p.Inverse().T
	cq := q.Inverse().T
	return cp.Sub(cq).Norm()
}

// Center returns the camera center (origin of the local frame) expressed in
// world coordinates.
func (p Pose) Center() Vec3 { return p.Inverse().T }
