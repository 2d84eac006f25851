// Package scene generates the synthetic RGB-D sequences that stand in for
// the paper's TUM-RGBD, Replica and ScanNet++ recordings (see README:
// substitutions). A small ray tracer renders procedurally textured worlds
// along scripted camera trajectories whose motion statistics mimic each named
// sequence, producing ground-truth color, depth and poses for the SLAM
// pipeline and its evaluation.
package scene

import (
	"math"

	"ags/internal/vecmath"
)

// Texture maps a surface point to an RGB albedo.
type Texture func(p vecmath.Vec3) vecmath.Vec3

// Solid returns a constant-color texture.
func Solid(c vecmath.Vec3) Texture {
	return func(vecmath.Vec3) vecmath.Vec3 { return c }
}

// Checker returns a two-color checkerboard with the given cell size.
func Checker(a, b vecmath.Vec3, cell float64) Texture {
	return func(p vecmath.Vec3) vecmath.Vec3 {
		ix := int(math.Floor(p.X/cell)) + int(math.Floor(p.Y/cell)) + int(math.Floor(p.Z/cell))
		if ix&1 == 0 {
			return a
		}
		return b
	}
}

// Stripes returns stripes of the two colors along the given axis (0=X,1=Y,2=Z).
func Stripes(a, b vecmath.Vec3, width float64, axis int) Texture {
	return func(p vecmath.Vec3) vecmath.Vec3 {
		var v float64
		switch axis {
		case 0:
			v = p.X
		case 1:
			v = p.Y
		default:
			v = p.Z
		}
		if int(math.Floor(v/width))&1 == 0 {
			return a
		}
		return b
	}
}

// hash3 is a deterministic integer-lattice hash to [0,1).
func hash3(x, y, z int64) float64 {
	h := uint64(x)*0x9E3779B185EBCA87 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(z)*0x165667B19E3779F9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h%1<<20) / (1 << 20)
}

// valueNoise is trilinear value noise on an integer lattice, in [0,1).
func valueNoise(p vecmath.Vec3) float64 {
	x0 := math.Floor(p.X)
	y0 := math.Floor(p.Y)
	z0 := math.Floor(p.Z)
	fx, fy, fz := p.X-x0, p.Y-y0, p.Z-z0
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	sz := fz * fz * (3 - 2*fz)
	ix, iy, iz := int64(x0), int64(y0), int64(z0)
	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	c00 := lerp(hash3(ix, iy, iz), hash3(ix+1, iy, iz), sx)
	c10 := lerp(hash3(ix, iy+1, iz), hash3(ix+1, iy+1, iz), sx)
	c01 := lerp(hash3(ix, iy, iz+1), hash3(ix+1, iy, iz+1), sx)
	c11 := lerp(hash3(ix, iy+1, iz+1), hash3(ix+1, iy+1, iz+1), sx)
	return lerp(lerp(c00, c10, sy), lerp(c01, c11, sy), sz)
}

// Noise returns a texture that modulates base color by value noise at the
// given spatial frequency; amount in [0,1] controls modulation depth. The
// detail is what gives the photometric aligner and the CODEC's SAD search
// gradients to lock onto.
func Noise(base vecmath.Vec3, freq, amount float64) Texture {
	return func(p vecmath.Vec3) vecmath.Vec3 {
		n := valueNoise(p.Scale(freq))
		s := 1 - amount + amount*n
		return base.Scale(s)
	}
}

// Mix multiplies two textures component-wise.
func Mix(a, b Texture) Texture {
	return func(p vecmath.Vec3) vecmath.Vec3 { return a(p).Mul(b(p)) }
}
