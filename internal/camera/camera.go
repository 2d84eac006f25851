// Package camera models the pinhole RGB-D camera used by the SLAM pipeline:
// intrinsics, perspective projection with its Jacobian (needed for EWA
// splatting and pose gradients), and back-projection of depth pixels.
package camera

import (
	"fmt"
	"math"

	"ags/internal/vecmath"
)

// Intrinsics is a pinhole camera calibration.
type Intrinsics struct {
	Fx, Fy float64 // focal lengths in pixels
	Cx, Cy float64 // principal point in pixels
	W, H   int     // image size in pixels
}

// NewIntrinsics returns intrinsics for a w x h sensor with the given vertical
// field of view (radians) and the principal point at the image center.
func NewIntrinsics(w, h int, vfov float64) Intrinsics {
	f := float64(h) / (2 * math.Tan(vfov/2))
	return Intrinsics{
		Fx: f, Fy: f,
		Cx: float64(w) / 2, Cy: float64(h) / 2,
		W: w, H: h,
	}
}

// Scaled returns the intrinsics for an image downsampled by factor s
// (s=2 halves the resolution). Useful for coarse-to-fine alignment pyramids.
func (in Intrinsics) Scaled(s int) Intrinsics {
	fs := float64(s)
	return Intrinsics{
		Fx: in.Fx / fs, Fy: in.Fy / fs,
		Cx: in.Cx / fs, Cy: in.Cy / fs,
		W: in.W / s, H: in.H / s,
	}
}

// Validate reports whether the intrinsics describe a usable camera: an image
// with pixels and a positive focal length (NaN is neither). slam calls it
// where intrinsics arrive from outside the process, Server.Open (a fleet OPEN)
// and every snapshot restore (a fleet RESTORE).
func (in Intrinsics) Validate() error {
	if in.W <= 0 || in.H <= 0 {
		return fmt.Errorf("camera: non-positive image size %dx%d", in.W, in.H)
	}
	if !(in.Fx > 0 && in.Fy > 0) {
		return fmt.Errorf("camera: non-positive focal length (%g, %g)", in.Fx, in.Fy)
	}
	return nil
}

// Project maps a point in camera coordinates (+Z forward) to pixel
// coordinates. ok is false when the point is at or behind the camera plane.
func (in Intrinsics) Project(p vecmath.Vec3) (px vecmath.Vec2, ok bool) {
	if p.Z <= 1e-8 {
		return vecmath.Vec2{}, false
	}
	return vecmath.Vec2{
		X: in.Fx*p.X/p.Z + in.Cx,
		Y: in.Fy*p.Y/p.Z + in.Cy,
	}, true
}

// Unproject maps a pixel and metric depth to a point in camera coordinates.
func (in Intrinsics) Unproject(px vecmath.Vec2, depth float64) vecmath.Vec3 {
	return vecmath.Vec3{
		X: (px.X - in.Cx) / in.Fx * depth,
		Y: (px.Y - in.Cy) / in.Fy * depth,
		Z: depth,
	}
}

// ProjectionJacobian returns the 2x3 Jacobian d(pixel)/d(camera point) at p,
// laid out as two row vectors (du/dp, dv/dp). Valid only for p.Z > 0.
func (in Intrinsics) ProjectionJacobian(p vecmath.Vec3) (du, dv vecmath.Vec3) {
	iz := 1 / p.Z
	iz2 := iz * iz
	du = vecmath.Vec3{X: in.Fx * iz, Y: 0, Z: -in.Fx * p.X * iz2}
	dv = vecmath.Vec3{X: 0, Y: in.Fy * iz, Z: -in.Fy * p.Y * iz2}
	return du, dv
}

// InImage reports whether the pixel lies inside the image bounds.
func (in Intrinsics) InImage(px vecmath.Vec2) bool {
	return px.X >= 0 && px.Y >= 0 && px.X < float64(in.W) && px.Y < float64(in.H)
}

// Camera bundles intrinsics with a world-to-camera pose.
type Camera struct {
	Intr Intrinsics
	Pose vecmath.Pose // world -> camera
}

// Ray returns the origin (camera center) and unit direction in world
// coordinates of the viewing ray through pixel (x+0.5, y+0.5).
func (c Camera) Ray(x, y int) (origin, dir vecmath.Vec3) {
	origin = c.Pose.Center()
	pc := c.Intr.Unproject(vecmath.Vec2{X: float64(x) + 0.5, Y: float64(y) + 0.5}, 1)
	world := c.Pose.Inverse().Apply(pc)
	return origin, world.Sub(origin).Normalized()
}
