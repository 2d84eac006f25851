// Package tracker implements both halves of AGS's movement-adaptive tracking
// (paper §4.2): the lightweight coarse pose estimator run for every frame,
// and the fine-grained 3DGS refinement run only when frame covisibility is
// low. It also provides the baseline SplaTAM-style tracker (N_T full 3DGS
// iterations per frame) the paper compares against.
package tracker

import (
	"math"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/vecmath"
)

// CoarseAligner estimates the relative pose between consecutive RGB-D frames
// with coarse-to-fine Gauss-Newton dense alignment (photometric + depth
// residuals). It plays the role of Droid-SLAM's feature+ConvGRU tracker in
// the AGS algorithm: a fast pose that never touches the Gaussians, good
// enough on its own when covisibility is high (see README: substitutions;
// the matching systolic-array workload is modeled by nnlite.PoseWorkload).
//
// An aligner keeps its image pyramids between calls, so it serves one
// goroutine at a time, and it recognises a frame it has already built a
// pyramid for by pointer: a frame handed to it must not be modified afterwards.
type CoarseAligner struct {
	prev, cur pyramidSide
	pyr       [levels]pyramidLevel
}

// The aligner's settings, tuned for the reproduction's frame sizes.
const (
	// levels is the number of pyramid levels (coarsest at /2^(levels-1)).
	levels = 3
	// itersPerLevel bounds Gauss-Newton iterations at each level.
	itersPerLevel = 12
	// depthWeight balances the geometric vs photometric residual.
	depthWeight float64 = 0.7
	// huberDelta is the robust-loss threshold on residuals.
	huberDelta float64 = 0.1
)

// NewCoarseAligner returns an aligner with no pyramid built yet.
func NewCoarseAligner() *CoarseAligner {
	return &CoarseAligner{}
}

// pyramidSide is one frame's half of the pyramid, finest level first. Level 0
// reads the frame's own colour and depth planes; the coarser ones and every
// luma plane are scratch the side keeps across builds.
type pyramidSide struct {
	src    *frame.Frame // the frame the side holds, nil before the first build
	planes [levels]pyramidPlanes
}

type pyramidPlanes struct {
	color *frame.Image
	depth *frame.DepthMap
	luma  []float64
}

// build fills the side for f, and does nothing when it already holds f.
func (s *pyramidSide) build(f *frame.Frame) {
	if s.src == f {
		return
	}
	s.src = f
	for i := range s.planes {
		p := &s.planes[i]
		if i == 0 {
			p.color, p.depth = f.Color, f.Depth
		} else {
			p.color = s.planes[i-1].color.Downsample(p.color)
			p.depth = s.planes[i-1].depth.Downsample(p.depth)
		}
		p.luma = p.color.Luma(p.luma)
	}
}

// pyramidLevel holds the downsampled data for one level.
type pyramidLevel struct {
	intr      camera.Intrinsics
	prevLuma  []float64
	prevDepth *frame.DepthMap
	curLuma   []float64
	curDepth  *frame.DepthMap
	w, h      int
}

// EstimateRelative returns the transform mapping previous-camera coordinates
// to current-camera coordinates (T_rel with p_cur = T_rel * p_prev),
// starting the optimization from init.
func (a *CoarseAligner) EstimateRelative(prev, cur *frame.Frame, intr camera.Intrinsics, init vecmath.Pose) vecmath.Pose {
	pyr := a.buildPyramid(prev, cur, intr)
	t := init
	for li := levels - 1; li >= 0; li-- {
		t = solveLevel(&pyr[li], t)
	}
	return t
}

// EstimatePose composes the relative estimate onto the previous frame's pose
// estimate, returning a world-to-camera pose for the current frame.
func (a *CoarseAligner) EstimatePose(prev, cur *frame.Frame, intr camera.Intrinsics, prevPose vecmath.Pose, initRel vecmath.Pose) vecmath.Pose {
	rel := a.EstimateRelative(prev, cur, intr, initRel)
	return rel.Compose(prevPose)
}

// buildPyramid returns the levels for one alignment, finest first, valid until
// the next call. The previous frame's side is usually built already: anchored
// to a key frame it is the same frame as last call, and frame to frame it is
// last call's current frame.
func (a *CoarseAligner) buildPyramid(prev, cur *frame.Frame, intr camera.Intrinsics) *[levels]pyramidLevel {
	if a.cur.src == prev {
		a.prev, a.cur = a.cur, a.prev
	}
	a.prev.build(prev)
	a.cur.build(cur)
	in := intr
	for i := range a.pyr {
		a.pyr[i] = pyramidLevel{
			intr:     in,
			prevLuma: a.prev.planes[i].luma, prevDepth: a.prev.planes[i].depth,
			curLuma: a.cur.planes[i].luma, curDepth: a.cur.planes[i].depth,
			w: in.W, h: in.H,
		}
		in = in.Scaled(2)
	}
	return &a.pyr
}

// bilinearScalar samples a flat scalar field bilinearly with border clamp.
func bilinearScalar(data []float64, w, h int, x, y float64) float64 {
	x = vecmath.Clamp(x, 0, float64(w-1))
	y = vecmath.Clamp(y, 0, float64(h-1))
	x0, y0 := int(x), int(y)
	x1, y1 := x0+1, y0+1
	if x1 >= w {
		x1 = w - 1
	}
	if y1 >= h {
		y1 = h - 1
	}
	fx, fy := x-float64(x0), y-float64(y0)
	top := data[y0*w+x0]*(1-fx) + data[y0*w+x1]*fx
	bot := data[y1*w+x0]*(1-fx) + data[y1*w+x1]*fx
	return top*(1-fy) + bot*fy
}

// gradScalar returns central-difference gradients of a flat field at (x, y).
func gradScalar(data []float64, w, h int, x, y float64) (gx, gy float64) {
	gx = 0.5 * (bilinearScalar(data, w, h, x+1, y) - bilinearScalar(data, w, h, x-1, y))
	gy = 0.5 * (bilinearScalar(data, w, h, x, y+1) - bilinearScalar(data, w, h, x, y-1))
	return gx, gy
}

func huberWeight(r, delta float64) float64 {
	ar := math.Abs(r)
	if ar <= delta {
		return 1
	}
	return delta / ar
}

func solveLevel(lv *pyramidLevel, t vecmath.Pose) vecmath.Pose {
	lambda := 1e-4
	prevErr := math.Inf(1)
	for iter := 0; iter < itersPerLevel; iter++ {
		var h [36]float64
		var b [6]float64
		var errSum float64
		var count int
		for y := 0; y < lv.h; y++ {
			for x := 0; x < lv.w; x++ {
				d := lv.prevDepth.At(x, y)
				if d <= 0 {
					continue
				}
				pPrev := lv.intr.Unproject(vecmath.Vec2{X: float64(x) + 0.5, Y: float64(y) + 0.5}, d)
				pCur := t.Apply(pPrev)
				px, ok := lv.intr.Project(pCur)
				if !ok || !lv.intr.InImage(px) {
					continue
				}
				du, dv := lv.intr.ProjectionJacobian(pCur)

				// Photometric residual.
				ic := bilinearScalar(lv.curLuma, lv.w, lv.h, px.X-0.5, px.Y-0.5)
				ip := lv.prevLuma[y*lv.w+x]
				rI := ic - ip
				// ESM-style gradient: average the current image's gradient at
				// the warped position with the reference image's gradient at
				// the source pixel — better convergence basin on large motion
				// than the forward-compositional gradient alone.
				gxC, gyC := gradScalar(lv.curLuma, lv.w, lv.h, px.X-0.5, px.Y-0.5)
				gxP, gyP := gradScalar(lv.prevLuma, lv.w, lv.h, float64(x), float64(y))
				gx, gy := 0.5*(gxC+gxP), 0.5*(gyC+gyP)
				// d(residual)/d(pCur) = gI . J
				jI := du.Scale(gx).Add(dv.Scale(gy))

				// Depth residual against the measured current depth.
				dMeas := lv.curDepth.At(int(px.X), int(px.Y))
				var rD float64
				var jD vecmath.Vec3
				haveDepth := dMeas > 0
				if haveDepth {
					rD = (pCur.Z - dMeas) * depthWeight
					jD = vecmath.Vec3{Z: depthWeight}
				}

				// Stack into the 6-dof system: dp/dxi = [I | -[p]x].
				addResidual := func(r float64, jp vecmath.Vec3, wgt float64) {
					// Left-perturbation: p' = p + dv + dw x p, so the
					// rotational part of dr/dxi is p x jp.
					j := [6]float64{
						jp.X, jp.Y, jp.Z,
						pCur.Y*jp.Z - pCur.Z*jp.Y,
						pCur.Z*jp.X - pCur.X*jp.Z,
						pCur.X*jp.Y - pCur.Y*jp.X,
					}
					for r2 := 0; r2 < 6; r2++ {
						b[r2] += wgt * j[r2] * r
						for c2 := 0; c2 < 6; c2++ {
							h[r2*6+c2] += wgt * j[r2] * j[c2]
						}
					}
					errSum += wgt * r * r
				}
				wI := huberWeight(rI, huberDelta)
				addResidual(rI, jI, wI)
				if haveDepth {
					wD := huberWeight(rD, huberDelta)
					addResidual(rD, jD, wD)
				}
				count++
			}
		}
		if count < 12 {
			break
		}
		// Levenberg damping and solve for the step.
		for i := 0; i < 6; i++ {
			h[i*6+i] += lambda * (1 + h[i*6+i])
		}
		step, ok := solve6(h, b)
		if !ok {
			break
		}
		tw := vecmath.Twist{
			V: vecmath.Vec3{X: -step[0], Y: -step[1], Z: -step[2]},
			W: vecmath.Vec3{X: -step[3], Y: -step[4], Z: -step[5]},
		}
		if tw.Norm() < 1e-9 {
			break
		}
		t = t.Retract(tw)
		if errSum > prevErr*0.9999 {
			lambda *= 4
		} else {
			lambda = math.Max(lambda*0.5, 1e-6)
		}
		prevErr = errSum
	}
	return t
}

// solve6 solves the 6x6 linear system H x = b by Gaussian elimination with
// partial pivoting. ok is false for (near-)singular systems.
func solve6(h [36]float64, b [6]float64) ([6]float64, bool) {
	var aug [6][7]float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			aug[i][j] = h[i*6+j]
		}
		aug[i][6] = b[i]
	}
	for col := 0; col < 6; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < 6; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[piv][col]) {
				piv = r
			}
		}
		if math.Abs(aug[piv][col]) < 1e-12 {
			return [6]float64{}, false
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		inv := 1 / aug[col][col]
		for j := col; j < 7; j++ {
			aug[col][j] *= inv
		}
		for r := 0; r < 6; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			if f == 0 {
				continue
			}
			for j := col; j < 7; j++ {
				aug[r][j] -= f * aug[col][j]
			}
		}
	}
	var x [6]float64
	for i := 0; i < 6; i++ {
		x[i] = aug[i][6]
	}
	return x, true
}
