// Package vecmath provides the small fixed-size linear algebra used across
// the AGS reproduction: 2- and 3-component vectors, 2x2 and 3x3 matrices,
// quaternions and rigid-body transforms on SE(3). Everything is
// allocation-free value math so it can sit in the inner loops of the
// splatting renderer.
package vecmath

import "math"

// Vec2 is a 2-component vector.
type Vec2 struct{ X, Y float64 }

// Vec3 is a 3-component vector.
type Vec3 struct{ X, Y, Z float64 }

// Scale returns v * s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise product of v and u.
func (v Vec3) Mul(u Vec3) Vec3 { return Vec3{v.X * u.X, v.Y * u.Y, v.Z * u.Z} }

// Dot returns the dot product of v and u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v x u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Clamp returns v with every component clamped to [lo, hi].
func (v Vec3) Clamp(lo, hi float64) Vec3 {
	return Vec3{clamp(v.X, lo, hi), clamp(v.Y, lo, hi), clamp(v.Z, lo, hi)}
}

// Lerp returns the linear interpolation (1-t)*v + t*u.
func (v Vec3) Lerp(u Vec3, t float64) Vec3 {
	return v.Scale(1 - t).Add(u.Scale(t))
}

// IsFinite reports whether every component is finite.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Clamp returns x clamped to [lo, hi].
func Clamp(x, lo, hi float64) float64 { return clamp(x, lo, hi) }
