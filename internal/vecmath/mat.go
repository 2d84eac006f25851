package vecmath

import "math"

// Mat2 is a 2x2 matrix in row-major order.
type Mat2 struct{ M00, M01, M10, M11 float64 }

// Mat3 is a 3x3 matrix in row-major order.
type Mat3 [9]float64

// Det returns the determinant of m.
func (m Mat2) Det() float64 { return m.M00*m.M11 - m.M01*m.M10 }

// Inverse returns the inverse of m and whether m was invertible.
func (m Mat2) Inverse() (Mat2, bool) {
	d := m.Det()
	if math.Abs(d) < 1e-300 {
		return Mat2{}, false
	}
	inv := 1 / d
	return Mat2{m.M11 * inv, -m.M01 * inv, -m.M10 * inv, m.M00 * inv}, true
}

// Eigenvalues returns the two eigenvalues of a symmetric 2x2 matrix,
// largest first.
func (m Mat2) Eigenvalues() (float64, float64) {
	mid := 0.5 * (m.M00 + m.M11)
	det := m.Det()
	d := math.Sqrt(math.Max(mid*mid-det, 0))
	return mid + d, mid - d
}

// Identity3 returns the 3x3 identity matrix.
func Identity3() Mat3 {
	return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// Mul returns the matrix product m * n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			out[3*r+c] = m[3*r]*n[c] + m[3*r+1]*n[3+c] + m[3*r+2]*n[6+c]
		}
	}
	return out
}

// MulVec returns m * v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

// Transpose returns the transpose of m.
func (m Mat3) Transpose() Mat3 {
	return Mat3{
		m[0], m[3], m[6],
		m[1], m[4], m[7],
		m[2], m[5], m[8],
	}
}

// Scale returns m with every element multiplied by s.
func (m Mat3) Scale(s float64) Mat3 {
	var out Mat3
	for i, v := range m {
		out[i] = v * s
	}
	return out
}

// Add returns m + n.
func (m Mat3) Add(n Mat3) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = m[i] + n[i]
	}
	return out
}

// Diag3 returns the diagonal matrix with the components of d on the diagonal.
func Diag3(d Vec3) Mat3 {
	return Mat3{d.X, 0, 0, 0, d.Y, 0, 0, 0, d.Z}
}

// OuterProduct returns the 3x3 matrix v * u^T.
func OuterProduct(v, u Vec3) Mat3 {
	return Mat3{
		v.X * u.X, v.X * u.Y, v.X * u.Z,
		v.Y * u.X, v.Y * u.Y, v.Y * u.Z,
		v.Z * u.X, v.Z * u.Y, v.Z * u.Z,
	}
}

// Skew returns the skew-symmetric cross-product matrix [v]_x such that
// Skew(v).MulVec(u) == v.Cross(u).
func Skew(v Vec3) Mat3 {
	return Mat3{
		0, -v.Z, v.Y,
		v.Z, 0, -v.X,
		-v.Y, v.X, 0,
	}
}
