package splat

import (
	"math"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/vecmath"
)

// The training objective is SplaTAM-style weighted L1 on color and on depth,
// with these weights. The depth term compares the rendered depth divided by
// the silhouette: raw alpha-weighted depth is biased low wherever the
// accumulated alpha is below 1, which systematically drags tracking backward.
const (
	colorWeight = 0.5
	depthWeight = 1.0
)

// LossConfig selects which pixels the loss covers.
type LossConfig struct {
	// UseSilhouetteMask restricts the loss to pixels whose rendered
	// silhouette exceeds SilThreshold — SplaTAM's tracking mask, which keeps
	// unmapped regions from dragging the pose.
	UseSilhouetteMask bool
	SilThreshold      float64
}

// DefaultMappingLoss returns the loss used for map optimization: every pixel.
func DefaultMappingLoss() LossConfig { return LossConfig{} }

// DefaultTrackingLoss returns the silhouette-masked loss used for tracking.
func DefaultTrackingLoss() LossConfig { return LossConfig{UseSilhouetteMask: true, SilThreshold: 0.99} }

// Grads holds the backward-pass outputs. Gaussian-parameter slices are
// indexed by stable Gaussian ID, and nil when the pass did not compute them
// (no GaussianGrads); a context keeps their storage across such passes.
type Grads struct {
	Mean     []vecmath.Vec3
	Color    []vecmath.Vec3
	Logit    []float64
	LogScale []float64 // d(loss)/d(Gaussian.LogScale)
	Pose     vecmath.Twist

	Loss   float64 // total weighted L1 loss over masked pixels
	Pixels int     // number of pixels contributing to the loss (lattice pixels only, for a sparse Result)
}

// BackwardOptions selects which gradients the pass computes.
type BackwardOptions struct {
	GaussianGrads bool // color/opacity/mean/scale (mapping)
	PoseGrads     bool // camera twist (tracking)
	// Deprecated: ignored, as Options.Workers. It remains only because
	// benchmarks/layers.go assigns it, and goes with that assignment.
	Workers int
}

// blendStep is one blending step of the pixel being back-propagated, rebuilt
// front-to-back from the blend log and consumed in reverse order for the
// suffix-sum alpha gradients.
type blendStep struct {
	alpha float64
	t     float64 // transmittance *before* this Gaussian
}

// Backward computes the loss and its gradients for the rendered result res
// against the target frame (step 4 of Fig. 2). It rebuilds each pixel's
// blending sequence front-to-back from the blend log res carries, then walks
// it back-to-front to form the suffix terms of d(pixel)/d(alpha_i). A sparse
// res's loss and gradients cover its lattice pixels only (see the package
// doc). With neither gradient selected only the loss is computed. The
// Gaussian gradients' per-splat factors come from res's splats, that is,
// from the cloud res was rendered from; cloud sizes the per-ID gradients
// and must be that cloud. One-shot entry point: the returned Grads lives in
// a fresh context nobody else holds; hot loops should call
// (*RenderContext).Backward.
func Backward(cloud *gauss.Cloud, cam camera.Camera, res *Result, target *frame.Frame, loss LossConfig, opts BackwardOptions) *Grads {
	return NewRenderContext().Backward(cloud, cam, res, target, loss, opts)
}

// Backward computes loss and gradients into the context's buffers. res may
// be any Result Render produced (from this context, another, or a one-shot
// Render): it carries the blend log the pass walks. It is only read, never
// written — even a Result aliasing this same context stays valid, per the
// package aliasing rules. The returned Grads aliases the context and is valid
// until its next Backward call.
//
//ags:hotpath
func (ctx *RenderContext) Backward(cloud *gauss.Cloud, cam camera.Camera, res *Result, target *frame.Frame, loss LossConfig, opts BackwardOptions) *Grads {
	w, h := cam.Intr.W, cam.Intr.H
	grads := &ctx.grads
	grads.Mean, grads.Color, grads.Logit, grads.LogScale = nil, nil, nil, nil
	if opts.GaussianGrads {
		ctx.gMean = zeroed(ctx.gMean, cloud.Len())
		ctx.gColor = zeroed(ctx.gColor, cloud.Len())
		ctx.gLogit = zeroed(ctx.gLogit, cloud.Len())
		ctx.gLogScale = zeroed(ctx.gLogScale, cloud.Len())
		grads.Mean, grads.Color, grads.Logit, grads.LogScale = ctx.gMean, ctx.gColor, ctx.gLogit, ctx.gLogScale
	}
	grads.Pose = vecmath.Twist{}
	grads.Loss = 0

	// Count masked pixels first so gradients are mean- rather than
	// sum-normalized (stable learning rates across resolutions). A sparse
	// Result's loss covers its lattice only, whatever the mask.
	masked := 0
	step := res.stride()
	for y := 0; y < h; y += step {
		for x := 0; x < w; x += step {
			if !loss.UseSilhouetteMask || res.Silhouette[y*w+x] > loss.SilThreshold {
				masked++
			}
		}
	}
	grads.Pixels = masked
	if masked == 0 {
		return grads
	}
	norm := 1 / float64(masked)

	// Every float reduction that crosses a tile boundary (loss, pose twist,
	// per-Gaussian gradients) is accumulated into per-tile partials and
	// merged serially in ascending tile order below. The reduction tree is
	// therefore fixed — raster order within a tile, tile order across tiles —
	// and independent of who took which tile of the pass, so the gradients
	// are byte-identical whoever the participants were.
	tiles := res.Tiles
	nt := tiles.NumTiles()

	// Per-tile gradient slots live in the arena's flat buffers indexed by
	// the tile's CSR offset: entry j of tile t is at Offsets[t]+j. A tile
	// only ever touches Gaussians in its own table, so this is the sparse
	// footprint of the tile's gradient contribution. The arena is embedded
	// in the context, reusing one allocation across mapping iterations.
	ar := &ctx.arena
	ar.prepare(nt, tiles.TotalEntries(), opts.GaussianGrads)
	ctx.pass.bw = backwardPass{cam: cam, res: res, target: target, loss: loss, opts: opts, norm: norm}
	ctx.pass.kind = kindBackward
	ctx.runPass(nt)
	ctx.pass.bw = backwardPass{} // a context keeps no caller's Result or frame alive

	mergeTiles(grads, ar, res, opts.GaussianGrads)
	return grads
}

// mergeTiles folds the arena's per-tile partials into grads: tile 0, 1, ...
// regardless of which participant produced each partial, and within a tile
// its entries in table order. It is a function of its own so that its
// compiled form, and with it which NaN a sum of two NaNs keeps (the operand
// order of a commutative add is the register allocator's choice), does not
// move with edits to Backward: the reference tests compare NaN bits.
//
//ags:hotpath
func mergeTiles(grads *Grads, ar *backwardArena, res *Result, gaussian bool) {
	tiles := res.Tiles
	for tileIdx := 0; tileIdx < tiles.NumTiles(); tileIdx++ {
		grads.Loss += ar.lossByTile[tileIdx]
		grads.Pose = grads.Pose.Add(ar.poseByTile[tileIdx])
		if gaussian {
			base := int(tiles.Offsets[tileIdx])
			for j, si := range tiles.ListAt(tileIdx) {
				id := res.Splats[si].ID
				grads.Mean[id] = grads.Mean[id].Add(ar.mean[base+j])
				grads.Color[id] = grads.Color[id].Add(ar.color[base+j])
				grads.Logit[id] += ar.logit[base+j]
				grads.LogScale[id] += ar.logScale[base+j]
			}
		}
	}
}

// backwardPass is a Backward call's inputs, which every participant of its
// pass reads.
type backwardPass struct {
	cam    camera.Camera
	res    *Result
	target *frame.Frame
	loss   LossConfig
	opts   BackwardOptions
	norm   float64
}

// backwardTile accumulates one tile's partials into the context's arena,
// with the slot's blend-step scratch.
//
//ags:hotpath
func (ctx *RenderContext) backwardTile(sl *slot, tileIdx int) {
	b := &ctx.pass.bw
	ar := &ctx.arena
	var tMean, tColor []vecmath.Vec3
	var tLogit, tLogScale []float64
	if b.opts.GaussianGrads {
		lo, hi := b.res.Tiles.Offsets[tileIdx], b.res.Tiles.Offsets[tileIdx+1]
		tMean, tColor = ar.mean[lo:hi], ar.color[lo:hi]
		tLogit, tLogScale = ar.logit[lo:hi], ar.logScale[lo:hi]
	}
	backwardOneTile(b.cam, b.res, b.target, b.loss, b.opts, tileIdx, b.norm,
		tMean, tColor, tLogit, tLogScale,
		&ar.poseByTile[tileIdx], &ar.lossByTile[tileIdx], &sl.steps)
}

// pixelLoss adds the weighted L1 loss of one unmasked pixel to *lossAcc and
// returns its gradients w.r.t. the rendered color, raw depth D and
// silhouette S.
//
//ags:hotpath
func pixelLoss(res *Result, target *frame.Frame, x, y, pix int, norm float64,
	lossAcc *float64) (dLdC vecmath.Vec3, dLdD, dLdS float64) {

	cRend := res.Color.Pix[pix]
	cGT := target.Color.Pix[pix]
	dRend := res.Depth.D[pix]
	sil := res.Silhouette[pix]
	dGT := target.Depth.At(x, y)
	diff := cRend.Sub(cGT)
	*lossAcc += colorWeight * (math.Abs(diff.X) + math.Abs(diff.Y) + math.Abs(diff.Z)) * norm / 3
	dLdC = vecmath.Vec3{X: sign(diff.X), Y: sign(diff.Y), Z: sign(diff.Z)}.Scale(colorWeight * norm / 3)
	if dGT > 0 && sil > 1e-6 {
		dHat := dRend / sil
		*lossAcc += depthWeight * math.Abs(dHat-dGT) * norm
		dLdHat := sign(dHat-dGT) * depthWeight * norm
		dLdD = dLdHat / sil
		dLdS = -dLdHat * dRend / (sil * sil)
	}
	return dLdC, dLdD, dLdS
}

// backwardOneTile accumulates one tile's partial reductions. The Gaussian
// gradient slices are per-tile slots indexed by position in the tile's
// Gaussian table (NOT by Gaussian ID); Backward folds them into the per-ID
// output buffers in fixed tile order. The per-splat factors of the logit and
// scale gradients are the splats' own (see Splat).
//
//ags:hotpath
func backwardOneTile(cam camera.Camera, res *Result, target *frame.Frame,
	loss LossConfig, opts BackwardOptions, tileIdx int, norm float64,
	gMean, gColor []vecmath.Vec3, gLogit, gLogScale []float64,
	gPose *vecmath.Twist, lossAcc *float64, scratch *[]blendStep) {

	w, h := cam.Intr.W, cam.Intr.H
	tiles := res.Tiles
	splats := res.Splats
	tx := tileIdx % tiles.TW
	ty := tileIdx / tiles.TW
	list := tiles.ListAt(tileIdx)
	x0, y0 := tx*TileSize, ty*TileSize
	x1 := min(x0+TileSize, w)
	y1 := min(y0+TileSize, h)
	viewRT := cam.Pose.R.Mat3().Transpose()
	lossOnly := !opts.GaussianGrads && !opts.PoseGrads
	log := &res.log
	steps := *scratch
	// A sparse Result's off-lattice pixels blended nothing, so they have no
	// run in the log to step over.
	step := res.stride()

	for y := y0; y < y1; y += step {
		pos := int(res.logRows[tileIdx*TileSize+y-y0])
		for x := x0; x < x1; x += step {
			pix := y*w + x
			// The pixel's run of the blend log, whether or not it is masked.
			n := int(res.PerPixelBlend[pix])
			lis, gs := log.li[pos:pos+n], log.g[pos:pos+n]
			pos += n
			if loss.UseSilhouetteMask && res.Silhouette[pix] <= loss.SilThreshold {
				continue
			}
			dLdC, dLdD, dLdS := pixelLoss(res, target, x, y, pix, norm, lossAcc)
			if lossOnly {
				continue
			}
			px := float64(x) + 0.5
			py := float64(y) + 0.5

			// Forward pass over the logged blends: alpha and the
			// transmittance before each step, in the order Render formed them.
			if cap(steps) < n {
				steps = make([]blendStep, n, 2*n)
			}
			steps = steps[:n]
			t := 1.0
			for k, li := range lis {
				alpha := clampAlpha(splats[list[li]].Opacity, gs[k])
				steps[k] = blendStep{alpha: alpha, t: t}
				t *= 1 - alpha
			}

			// Reverse walk with suffix accumulators:
			// dC/dalpha_i = T_i*c_i - S_i/(1-alpha_i), S_i = sum_{j>i} T_j*alpha_j*c_j,
			// and analogously for the depth and silhouette channels.
			var sColor vecmath.Vec3
			var sDepth, sSil float64
			for k := n - 1; k >= 0; k-- {
				c := steps[k]
				li := lis[k]
				si := list[li]
				s := &splats[si]
				wgt := c.t * c.alpha

				// Color gradient: dC/dcolor_i = T_i*alpha_i.
				if opts.GaussianGrads {
					gColor[li] = gColor[li].Add(dLdC.Scale(wgt))
				}

				inv := 1 / (1 - c.alpha)
				dCdA := s.Color.Scale(c.t).Sub(sColor.Scale(inv))
				dDdA := c.t*s.Depth - sDepth*inv
				dSdA := c.t - sSil*inv
				dLdA := dLdC.Dot(dCdA) + dLdD*dDdA + dLdS*dSdA

				sColor = sColor.Add(s.Color.Scale(wgt))
				sDepth += wgt * s.Depth
				sSil += wgt

				// Through the alpha clamp: no gradient when saturated.
				if c.alpha >= MaxAlpha {
					continue
				}

				if opts.GaussianGrads {
					// d(alpha)/d(logit) = g * sigmoid'(logit).
					gLogit[li] += dLdA * gs[k] * s.sigGrad
				}

				// d(alpha)/d(mean2D) = alpha * CovInv * (pix - mean2D),
				// through the precomputed conic (== the symmetric inverse
				// covariance, see Splat).
				dx := px - s.Mean2D.X
				dy := py - s.Mean2D.Y
				sdx := s.ConA*dx + s.ConB*dy
				sdy := s.ConB*dx + s.ConC*dy
				dAdMu := vecmath.Vec2{X: c.alpha * sdx, Y: c.alpha * sdy}
				gMu := dAdMu.Scale(dLdA)

				// Into camera space through the projection Jacobian rows
				// (d(mean2D)/d(camPt) = J), plus the depth-render dependence
				// on the camera-space Z.
				gpc := s.DU.Scale(gMu.X).Add(s.DV.Scale(gMu.Y))
				gpc.Z += dLdD * wgt // dD/d(depth_i) = T_i*alpha_i

				if opts.GaussianGrads {
					gMean[li] = gMean[li].Add(viewRT.MulVec(gpc))
					// Isotropic scale gradient through the 2D covariance:
					// d(alpha)/d(log s) = alpha * s^2 * (CovInv d)^T JJT (CovInv d).
					quad := sdx*(s.JJT.M00*sdx+s.JJT.M01*sdy) + sdy*(s.JJT.M10*sdx+s.JJT.M11*sdy)
					gLogScale[li] += dLdA * c.alpha * s.scale2 * quad
				}
				if opts.PoseGrads {
					gPose.V = gPose.V.Add(gpc)
					gPose.W = gPose.W.Add(s.CamPt.Cross(gpc))
				}
			}
		}
	}
	*scratch = steps
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
