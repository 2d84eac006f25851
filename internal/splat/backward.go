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

// blendStep is one blend of the pixel being rendered, in the order the
// forward walk formed it: the entry's position in its tile's table, the
// falloff G, alpha, and the transmittance before it. A pass that trains walks
// a pixel's steps back to front for the suffix-sum alpha gradients.
type blendStep struct {
	li       int32
	g, alpha float64
	t        float64 // transmittance *before* this Gaussian
}

// Backward computes the loss and its gradients for the rendered result res
// against the target frame (step 4 of Fig. 2), into the context's buffers.
// It re-walks res's tiles with Train's kernel, which recomputes each pixel's
// blends from res's splats and tables, bit for bit those of the pass that
// produced res, and walks them back-to-front to form the suffix terms of
// d(pixel)/d(alpha_i); so its Grads are Train's. A sparse res's loss and
// gradients cover its lattice pixels only (see the package doc). With
// neither gradient selected only the loss is computed. The Gaussian
// gradients' per-splat factors come from res's splats, that is, from the
// cloud res was rendered from; cloud sizes the per-ID gradients and must be
// that cloud. res may be any Result Render or Train produced (from this
// context, another, or a one-shot Render). It is only read, never written —
// even a Result aliasing this same context stays valid, per the package
// aliasing rules. The returned Grads aliases the context and is valid until
// its next Backward or Train call; hot loops that render every iteration
// call Train instead.
//
//ags:hotpath
func (ctx *RenderContext) Backward(cloud *gauss.Cloud, cam camera.Camera, res *Result, target *frame.Frame, loss LossConfig, opts BackwardOptions) *Grads {
	grads := ctx.startGrads(cloud.Len(), res.Tiles, opts)
	ctx.runTiles(tilePass{res: res, target: target, loss: loss, opts: opts,
		viewRT: cam.Pose.R.Mat3().Transpose()})
	ctx.finishGrads(res, opts.GaussianGrads)
	return grads
}

// startGrads readies the context's Grads and partial-reduction arena for a
// pass that trains over tiles: the per-Gaussian gradients zeroed for n
// Gaussians if the pass computes them, nil otherwise.
//
// Every float reduction that crosses a tile boundary (loss, pose twist,
// per-Gaussian gradients) is accumulated into per-tile partials and merged
// serially in ascending tile order (finishGrads). The reduction tree is
// therefore fixed — raster order within a tile, tile order across tiles —
// and independent of who took which tile of the pass, so the gradients are
// byte-identical whoever the participants were. Per-tile gradient slots live
// in the arena's flat buffers indexed by the tile's CSR offset: entry j of
// tile t is at Offsets[t]+j. A tile only ever touches Gaussians in its own
// table, so this is the sparse footprint of the tile's gradient
// contribution. The arena is embedded in the context, reusing one
// allocation across mapping iterations.
//
//ags:hotpath
func (ctx *RenderContext) startGrads(n int, tiles *Tiles, opts BackwardOptions) *Grads {
	grads := &ctx.grads
	*grads = Grads{}
	if opts.GaussianGrads {
		ctx.gMean = zeroed(ctx.gMean, n)
		ctx.gColor = zeroed(ctx.gColor, n)
		ctx.gLogit = zeroed(ctx.gLogit, n)
		ctx.gLogScale = zeroed(ctx.gLogScale, n)
		grads.Mean, grads.Color, grads.Logit, grads.LogScale = ctx.gMean, ctx.gColor, ctx.gLogit, ctx.gLogScale
	}
	ctx.arena.prepare(tiles.NumTiles(), tiles.TotalEntries(), opts.GaussianGrads)
	return grads
}

// finishGrads completes a pass that trained over res's tiles: the
// participants' masked-pixel counts sum to Pixels, the tiles' partials are
// folded in (tile 0, 1, ... regardless of which participant produced each
// partial, and within a tile its entries in table order), and the loss and
// every gradient are then scaled once by 1/Pixels, so they are means rather
// than sums over the masked pixels (learning rates that hold across
// resolutions). A pass with no masked pixel leaves them zero.
//
//ags:hotpath
func (ctx *RenderContext) finishGrads(res *Result, gaussian bool) {
	grads, ar, tiles := &ctx.grads, &ctx.arena, res.Tiles
	for i := range ctx.slots {
		grads.Pixels += ctx.slots[i].pixels
	}
	if grads.Pixels == 0 {
		return
	}
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
	norm := 1 / float64(grads.Pixels)
	grads.Loss *= norm
	grads.Pose = vecmath.Twist{V: grads.Pose.V.Scale(norm), W: grads.Pose.W.Scale(norm)}
	if gaussian {
		for id := range grads.Mean {
			grads.Mean[id] = grads.Mean[id].Scale(norm)
			grads.Color[id] = grads.Color[id].Scale(norm)
			grads.Logit[id] *= norm
			grads.LogScale[id] *= norm
		}
	}
}

// tileGrads is one tile's partial reductions while its pixels are walked:
// the Gaussian gradients, per entry of its table (NOT per Gaussian ID; views
// of the arena's slots, nil without GaussianGrads), the pose twist and the
// loss.
type tileGrads struct {
	mean, color     []vecmath.Vec3
	logit, logScale []float64
	pose            vecmath.Twist
	loss            float64
}

// pixelLoss adds the weighted L1 loss of one unmasked pixel, whose rendered
// color, raw depth D and silhouette S are c, d and sil, to *lossAcc and
// returns its gradients w.r.t. those three. Neither the loss nor the
// gradients are normalized: the pass scales its merged sums by 1/Pixels once
// (finishGrads).
//
//ags:hotpath
func pixelLoss(c vecmath.Vec3, d, sil float64, target *frame.Frame, x, y, pix int,
	lossAcc *float64) (dLdC vecmath.Vec3, dLdD, dLdS float64) {

	cGT := target.Color.Pix[pix]
	dGT := target.Depth.At(x, y)
	diff := c.Sub(cGT)
	*lossAcc += colorWeight * (math.Abs(diff.X) + math.Abs(diff.Y) + math.Abs(diff.Z)) / 3
	dLdC = vecmath.Vec3{X: sign(diff.X), Y: sign(diff.Y), Z: sign(diff.Z)}.Scale(colorWeight / 3)
	if dGT > 0 && sil > 1e-6 {
		dHat := d / sil
		*lossAcc += depthWeight * math.Abs(dHat-dGT)
		dLdHat := sign(dHat-dGT) * depthWeight
		dLdD = dLdHat / sil
		dLdS = -dLdHat * d / (sil * sil)
	}
	return dLdC, dLdD, dLdS
}

// backPixel walks one pixel's blends back to front and adds its gradients,
// given the loss's gradients w.r.t. its color, raw depth and silhouette, to
// the tile's partials. The per-splat factors of the logit and scale
// gradients are the splats' own (see Splat).
//
//ags:hotpath
func backPixel(steps []blendStep, list []int32, splats []Splat, px, py float64,
	dLdC vecmath.Vec3, dLdD, dLdS float64, tp *tilePass, part *tileGrads) {

	// Reverse walk with suffix accumulators:
	// dC/dalpha_i = T_i*c_i - S_i/(1-alpha_i), S_i = sum_{j>i} T_j*alpha_j*c_j,
	// and analogously for the depth and silhouette channels.
	var sColor vecmath.Vec3
	var sDepth, sSil float64
	for k := len(steps) - 1; k >= 0; k-- {
		c := &steps[k]
		li := c.li
		s := &splats[list[li]]
		wgt := c.t * c.alpha

		// Color gradient: dC/dcolor_i = T_i*alpha_i.
		if tp.opts.GaussianGrads {
			part.color[li] = part.color[li].Add(dLdC.Scale(wgt))
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

		if tp.opts.GaussianGrads {
			// d(alpha)/d(logit) = g * sigmoid'(logit).
			part.logit[li] += dLdA * c.g * s.sigGrad
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

		if tp.opts.GaussianGrads {
			part.mean[li] = part.mean[li].Add(tp.viewRT.MulVec(gpc))
			// Isotropic scale gradient through the 2D covariance:
			// d(alpha)/d(log s) = alpha * s^2 * (CovInv d)^T JJT (CovInv d).
			quad := sdx*(s.JJT.M00*sdx+s.JJT.M01*sdy) + sdy*(s.JJT.M10*sdx+s.JJT.M11*sdy)
			part.logScale[li] += dLdA * c.alpha * s.scale2 * quad
		}
		if tp.opts.PoseGrads {
			part.pose.V = part.pose.V.Add(gpc)
			part.pose.W = part.pose.W.Add(s.CamPt.Cross(gpc))
		}
	}
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
