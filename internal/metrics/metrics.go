// Package metrics implements the evaluation metrics of the paper: ATE RMSE
// (absolute trajectory error after rigid alignment, Table 2), PSNR (mapping
// quality, Fig. 14), and the false-positive rate of contribution prediction
// (§6.2). Alignment uses Horn's closed-form quaternion method.
package metrics

import (
	"fmt"
	"math"

	"ags/internal/frame"
	"ags/internal/vecmath"
)

// PSNR returns the peak signal-to-noise ratio in dB between two images.
// Identical images return +Inf.
func PSNR(a, b *frame.Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("metrics: image size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var mse float64
	for i := range a.Pix {
		d := a.Pix[i].Sub(b.Pix[i])
		mse += d.X*d.X + d.Y*d.Y + d.Z*d.Z
	}
	mse /= float64(3 * len(a.Pix))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(1/mse), nil
}

// AlignRigid returns the rigid transform (applied to src points) that best
// maps src onto dst in the least-squares sense (Horn's quaternion method,
// no scale — the SE(3) alignment standard for RGB-D ATE evaluation).
func AlignRigid(src, dst []vecmath.Vec3) (vecmath.Pose, error) {
	if len(src) != len(dst) || len(src) == 0 {
		return vecmath.PoseIdentity(), fmt.Errorf("metrics: bad correspondence count %d vs %d", len(src), len(dst))
	}
	n := float64(len(src))
	var cs, cd vecmath.Vec3
	for i := range src {
		cs = cs.Add(src[i])
		cd = cd.Add(dst[i])
	}
	cs = cs.Scale(1 / n)
	cd = cd.Scale(1 / n)

	// Cross-covariance S = sum (src-cs)(dst-cd)^T.
	var s vecmath.Mat3
	for i := range src {
		s = s.Add(vecmath.OuterProduct(src[i].Sub(cs), dst[i].Sub(cd)))
	}
	// Horn's symmetric 4x4 matrix N.
	var nmat [16]float64
	tr := s[0] + s[4] + s[8]
	nmat[0] = tr
	nmat[1], nmat[4] = s[5]-s[7], s[5]-s[7]
	nmat[2], nmat[8] = s[6]-s[2], s[6]-s[2]
	nmat[3], nmat[12] = s[1]-s[3], s[1]-s[3]
	nmat[5] = s[0] - s[4] - s[8]
	nmat[6], nmat[9] = s[1]+s[3], s[1]+s[3]
	nmat[7], nmat[13] = s[2]+s[6], s[2]+s[6]
	nmat[10] = -s[0] + s[4] - s[8]
	nmat[11], nmat[14] = s[5]+s[7], s[5]+s[7]
	nmat[15] = -s[0] - s[4] + s[8]

	q := maxEigenvector4(nmat)
	rot := vecmath.Quat{W: q[0], X: q[1], Y: q[2], Z: q[3]}.Normalized()
	t := cd.Sub(rot.Rotate(cs))
	return vecmath.Pose{R: rot, T: t}, nil
}

// maxEigenvector4 returns the eigenvector of the dominant eigenvalue of a
// symmetric 4x4 matrix via shifted power iteration.
func maxEigenvector4(m [16]float64) [4]float64 {
	// Shift to make the target eigenvalue the largest in magnitude.
	var shift float64
	for i := 0; i < 4; i++ {
		var row float64
		for j := 0; j < 4; j++ {
			row += math.Abs(m[4*i+j])
		}
		shift = math.Max(shift, row)
	}
	for i := 0; i < 4; i++ {
		m[4*i+i] += shift
	}
	v := [4]float64{1, 0.3, -0.2, 0.5} // arbitrary non-degenerate start
	for iter := 0; iter < 128; iter++ {
		var nv [4]float64
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				nv[i] += m[4*i+j] * v[j]
			}
		}
		var norm float64
		for i := 0; i < 4; i++ {
			norm += nv[i] * nv[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for i := 0; i < 4; i++ {
			v[i] = nv[i] / norm
		}
	}
	return v
}

// ATERMSE computes the absolute trajectory error (RMSE over camera centers,
// in the same units as the scene — meters here; the experiment harness
// reports centimeters) between estimated and ground-truth world-to-camera
// poses, after rigid alignment of the estimated trajectory.
func ATERMSE(est, gt []vecmath.Pose) (float64, error) {
	if len(est) != len(gt) || len(est) == 0 {
		return 0, fmt.Errorf("metrics: trajectory length mismatch %d vs %d", len(est), len(gt))
	}
	src := make([]vecmath.Vec3, len(est))
	dst := make([]vecmath.Vec3, len(gt))
	for i := range est {
		src[i] = est[i].Center()
		dst[i] = gt[i].Center()
	}
	align := vecmath.PoseIdentity()
	if len(est) >= 3 {
		a, err := AlignRigid(src, dst)
		if err != nil {
			return 0, err
		}
		align = a
	}
	var sq float64
	for i := range src {
		d := align.Apply(src[i]).Sub(dst[i])
		sq += d.NormSq()
	}
	return math.Sqrt(sq / float64(len(src))), nil
}

// FalsePositiveRate compares predicted non-contributory Gaussian IDs against
// the ground-truth non-contributory set: FP cases are contributory Gaussians
// (not in truth) wrongly predicted as non-contributory. The rate is FP
// divided by the number of predictions, as in §6.2.
func FalsePositiveRate(predicted, truth map[int]bool) float64 {
	if len(predicted) == 0 {
		return 0
	}
	fp := 0
	//ags:allow(maprange, integer count of set difference: every visit order yields the same total)
	for id := range predicted {
		if !truth[id] {
			fp++
		}
	}
	return float64(fp) / float64(len(predicted))
}

// GeoMean returns the geometric mean of positive values; zero and negative
// entries are skipped.
func GeoMean(vals []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
