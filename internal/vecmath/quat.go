package vecmath

import "math"

// Quat is a unit quaternion (W + Xi + Yj + Zk) representing a 3D rotation.
type Quat struct{ W, X, Y, Z float64 }

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatFromAxisAngle returns the rotation of angle radians about axis.
// The axis need not be normalized; a zero axis yields the identity.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	n := axis.Norm()
	if n == 0 {
		return QuatIdentity()
	}
	s := math.Sin(angle/2) / n
	return Quat{W: math.Cos(angle / 2), X: axis.X * s, Y: axis.Y * s, Z: axis.Z * s}
}

// Mul returns the Hamilton product q * p (apply p first, then q).
func (q Quat) Mul(p Quat) Quat {
	return Quat{
		W: q.W*p.W - q.X*p.X - q.Y*p.Y - q.Z*p.Z,
		X: q.W*p.X + q.X*p.W + q.Y*p.Z - q.Z*p.Y,
		Y: q.W*p.Y - q.X*p.Z + q.Y*p.W + q.Z*p.X,
		Z: q.W*p.Z + q.X*p.Y - q.Y*p.X + q.Z*p.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Norm returns the quaternion's length.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalized returns q scaled to unit length; a zero quaternion becomes the
// identity.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if n == 0 {
		return QuatIdentity()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Rotate applies the rotation to v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = v + 2*qv x (qv x v + w*v)
	qv := Vec3{q.X, q.Y, q.Z}
	t := qv.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(qv.Cross(t))
}

// Mat3 returns the rotation matrix equivalent to q.
func (q Quat) Mat3() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y),
		2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x),
		2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y),
	}
}

// QuatFromMat3 converts a rotation matrix to a unit quaternion using
// Shepperd's method.
func QuatFromMat3(m Mat3) Quat {
	tr := m[0] + m[4] + m[8]
	var q Quat
	switch {
	case tr > 0:
		s := math.Sqrt(tr+1) * 2
		q = Quat{W: s / 4, X: (m[7] - m[5]) / s, Y: (m[2] - m[6]) / s, Z: (m[3] - m[1]) / s}
	case m[0] > m[4] && m[0] > m[8]:
		s := math.Sqrt(1+m[0]-m[4]-m[8]) * 2
		q = Quat{W: (m[7] - m[5]) / s, X: s / 4, Y: (m[1] + m[3]) / s, Z: (m[2] + m[6]) / s}
	case m[4] > m[8]:
		s := math.Sqrt(1+m[4]-m[0]-m[8]) * 2
		q = Quat{W: (m[2] - m[6]) / s, X: (m[1] + m[3]) / s, Y: s / 4, Z: (m[5] + m[7]) / s}
	default:
		s := math.Sqrt(1+m[8]-m[0]-m[4]) * 2
		q = Quat{W: (m[3] - m[1]) / s, X: (m[2] + m[6]) / s, Y: (m[5] + m[7]) / s, Z: s / 4}
	}
	return q.Normalized()
}

// AngleTo returns the absolute rotation angle in radians between q and p.
func (q Quat) AngleTo(p Quat) float64 {
	d := q.Conj().Mul(p).Normalized()
	w := clamp(math.Abs(d.W), -1, 1)
	return 2 * math.Acos(w)
}
