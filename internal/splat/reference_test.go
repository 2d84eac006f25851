package splat

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/vecmath"
)

// This file keeps the full-walk kernels the package shipped before sub-tile
// culling and the blend log — every table entry evaluated at every pixel of
// its tile, Backward replaying Splat.Alpha — as the reference the production
// kernels must match byte for byte. refRenderOneTile, refBackwardOneTile and
// refContribution are verbatim copies, but for the loss weights and the
// contribution threshold, which are constants now, and the lattice
// restriction refBackwardOneTile takes for the sparse tracking pass; only the
// serial drivers around them are new. refBuildTiles is the table build the
// package shipped before one depth sort ordered every table: splats filled
// per tile in index order, then each table insertion-sorted on its own.
// cmpDepthKey is the comparator that one sort ordered the keys with before
// a radix sort did, and preprocessInto the projection as one walk of the
// cloud before it became a chunked pass.

// refContribution is one blending step recorded during the per-pixel forward
// replay, consumed in reverse order for the suffix-sum alpha gradients.
type refContribution struct {
	si    int32 // index into res.Splats
	li    int32 // position in the tile's Gaussian table (per-tile grad slot)
	alpha float64
	g     float64
	t     float64 // transmittance *before* this Gaussian
}

func refRenderOneTile(res *Result, splats []Splat, tiles *Tiles, tileIdx, w, h int,
	nonContrib, touched []int32, alphaOps, blendOps *int64) {

	tx := tileIdx % tiles.TW
	ty := tileIdx / tiles.TW
	list := tiles.ListAt(tileIdx)
	x0, y0 := tx*TileSize, ty*TileSize
	x1 := min(x0+TileSize, w)
	y1 := min(y0+TileSize, h)

	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			px := float64(x) + 0.5
			py := float64(y) + 0.5
			t := 1.0
			var color vecmath.Vec3
			var depth, sil float64
			pix := y*w + x
			li := 0
			for ; li < len(list); li++ {
				s := &splats[list[li]]
				(*alphaOps)++
				res.PerPixelAlpha[pix]++
				alpha, _ := s.Alpha(px, py)
				if nonContrib != nil {
					touched[s.ID]++
					if alpha < MinAlpha {
						nonContrib[s.ID]++
					}
				}
				if alpha < MinAlpha {
					continue
				}
				(*blendOps)++
				res.PerPixelBlend[pix]++
				wgt := t * alpha
				color = color.Add(s.Color.Scale(wgt))
				depth += wgt * s.Depth
				sil += wgt
				t *= 1 - alpha
				if t < TransmittanceEps {
					li++
					break
				}
			}
			if nonContrib != nil {
				// Table entries past the early-termination point were never
				// blended, so they contributed nothing to this pixel. The
				// hardware gets this information for free (the loop index at
				// termination); it is where the bulk of Fig. 5's
				// non-contributory Gaussians come from.
				for ; li < len(list); li++ {
					id := splats[list[li]].ID
					touched[id]++
					nonContrib[id]++
				}
			}
			res.Color.Pix[pix] = color
			res.Depth.D[pix] = depth
			res.Silhouette[pix] = sil
		}
	}
}

func refBackwardOneTile(cloud *gauss.Cloud, cam camera.Camera, res *Result, target *frame.Frame,
	loss LossConfig, opts BackwardOptions, tileIdx int, norm float64,
	gMean, gColor []vecmath.Vec3, gLogit, gLogScale []float64,
	gPose *vecmath.Twist, lossAcc *float64, scratch *[]refContribution, lattice bool) {

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

	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			pix := y*w + x
			if lattice && !onLattice(x, y) {
				continue
			}
			if loss.UseSilhouetteMask && !(res.Silhouette[pix] > loss.SilThreshold) {
				continue
			}
			px := float64(x) + 0.5
			py := float64(y) + 0.5

			// Loss gradient at this pixel (L1).
			cRend := res.Color.Pix[pix]
			cGT := target.Color.Pix[pix]
			dRend := res.Depth.D[pix]
			sil := res.Silhouette[pix]
			dGT := target.Depth.At(x, y)
			diff := cRend.Sub(cGT)
			*lossAcc += colorWeight * (math.Abs(diff.X) + math.Abs(diff.Y) + math.Abs(diff.Z)) * norm / 3
			dLdC := vecmath.Vec3{X: sign(diff.X), Y: sign(diff.Y), Z: sign(diff.Z)}.Scale(colorWeight * norm / 3)
			var dLdD, dLdS float64 // gradients w.r.t. raw depth D and silhouette S
			if dGT > 0 {
				if sil > 1e-6 {
					dHat := dRend / sil
					*lossAcc += depthWeight * math.Abs(dHat-dGT) * norm
					dLdHat := sign(dHat-dGT) * depthWeight * norm
					dLdD = dLdHat / sil
					dLdS = -dLdHat * dRend / (sil * sil)
				}
			}

			// Forward replay, recording each blending step.
			contribs := (*scratch)[:0]
			t := 1.0
			for li, si := range list {
				s := &splats[si]
				alpha, g := s.Alpha(px, py)
				if alpha < MinAlpha {
					continue
				}
				contribs = append(contribs, refContribution{si: si, li: int32(li), alpha: alpha, g: g, t: t})
				t *= 1 - alpha
				if t < TransmittanceEps {
					break
				}
			}
			*scratch = contribs

			// Reverse walk with suffix accumulators:
			// dC/dalpha_i = T_i*c_i - S_i/(1-alpha_i), S_i = sum_{j>i} T_j*alpha_j*c_j,
			// and analogously for the depth and silhouette channels.
			var sColor vecmath.Vec3
			var sDepth, sSil float64
			for k := len(contribs) - 1; k >= 0; k-- {
				c := &contribs[k]
				s := &splats[c.si]
				wgt := c.t * c.alpha

				// Color gradient: dC/dcolor_i = T_i*alpha_i.
				if opts.GaussianGrads {
					gColor[c.li] = gColor[c.li].Add(dLdC.Scale(wgt))
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
					gLogit[c.li] += dLdA * c.g * gauss.SigmoidGrad(s.Opacity)
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
					gMean[c.li] = gMean[c.li].Add(viewRT.MulVec(gpc))
					// Isotropic scale gradient through the 2D covariance:
					// d(alpha)/d(log s) = alpha * s^2 * (CovInv d)^T JJT (CovInv d).
					sc := cloud.At(s.ID).Scale()
					s2 := (sc*sc + sc*sc + sc*sc) / 3
					quad := sdx*(s.JJT.M00*sdx+s.JJT.M01*sdy) + sdy*(s.JJT.M10*sdx+s.JJT.M11*sdy)
					gLogScale[c.li] += dLdA * c.alpha * s2 * quad
				}
				if opts.PoseGrads {
					gPose.V = gPose.V.Add(gpc)
					gPose.W = gPose.W.Add(s.CamPt.Cross(gpc))
				}
			}
		}
	}
}

// cmpDepthKey orders keys by (depth, splat index): depth ties break toward
// the lower index, so the order is strict and total and a pure function of
// the splat slice. buildTilesInto stores a NaN depth as +Inf, so a splat
// with no defined depth sorts behind every finite one, among the +Inf depths
// by index. sortDepthKeys must give this order
// (TestDepthOrderMatchesComparator).
func cmpDepthKey(a, b depthKey) int {
	switch {
	case a.depth < b.depth:
		return -1
	case a.depth > b.depth:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// preprocessInto projects every Gaussian in the cloud in one walk, appending
// the splats projectRange keeps to splats: the projection a context's Each
// pass (project) must reproduce byte for byte, and the splats the
// tests build tables from without a context.
func preprocessInto(splats []Splat, cloud *gauss.Cloud, cam camera.Camera, skip []bool) []Splat {
	n := len(splats)
	splats = slices.Grow(splats, cloud.Len())[:n+cloud.Len()]
	return splats[:n+projectRange(splats[n:], cloud, cam, skip, 0, cloud.Len())]
}

// buildTiles is buildTilesInto on fresh tables.
func buildTiles(splats []Splat, intr camera.Intrinsics) *Tiles {
	t := &Tiles{}
	var cursor []int32
	var keys []depthKey
	buildTilesInto(t, &cursor, &keys, splats, intr)
	return t
}

// refBuildTiles builds the tables tile by tile: every splat whose box
// overlaps the tile, in ascending index, then an insertion sort on (depth,
// index), with a NaN depth placed as +Inf.
func refBuildTiles(splats []Splat, intr camera.Intrinsics) *Tiles {
	tw := (intr.W + TileSize - 1) / TileSize
	th := (intr.H + TileSize - 1) / TileSize
	t := &Tiles{TW: tw, TH: th, Offsets: make([]int32, 1, tw*th+1), Entries: []int32{}}
	depth := func(e int32) float64 {
		if d := splats[e].Depth; !math.IsNaN(d) {
			return d
		}
		return math.Inf(1)
	}
	for ty := 0; ty < th; ty++ {
		for tx := 0; tx < tw; tx++ {
			start := len(t.Entries)
			for i := range splats {
				x0, x1, y0, y1, ok := tileRect(&splats[i], intr.W, intr.H, tw, th)
				if ok && tx >= x0 && tx <= x1 && ty >= y0 && ty <= y1 {
					t.Entries = append(t.Entries, int32(i))
				}
			}
			list := t.Entries[start:]
			for i := 1; i < len(list); i++ {
				e := list[i]
				d := depth(e)
				j := i - 1
				for j >= 0 && (depth(list[j]) > d || (depth(list[j]) == d && list[j] > e)) {
					list[j+1] = list[j]
					j--
				}
				list[j+1] = e
			}
			t.Offsets = append(t.Offsets, int32(len(t.Entries)))
		}
	}
	return t
}

// refRender walks every tile serially through the reference forward kernel
// over already projected splats.
func refRender(splats []Splat, nGauss int, cam camera.Camera, opts Options) *Result {
	w, h := cam.Intr.W, cam.Intr.H
	res := &Result{
		Color:         frame.NewImage(w, h),
		Depth:         frame.NewDepthMap(w, h),
		Silhouette:    make([]float64, w*h),
		Splats:        splats,
		Tiles:         refBuildTiles(splats, cam.Intr),
		PerPixelBlend: make([]int32, w*h),
		PerPixelAlpha: make([]int32, w*h),
	}
	if opts.LogContribution {
		res.NonContrib = make([]int32, nGauss)
		res.Touched = make([]int32, nGauss)
	}
	for tileIdx := 0; tileIdx < res.Tiles.NumTiles(); tileIdx++ {
		refRenderOneTile(res, splats, res.Tiles, tileIdx, w, h, res.NonContrib, res.Touched, &res.AlphaOps, &res.BlendOps)
	}
	return res
}

// onLattice reports whether pixel (x, y) is on the sparse pass's lattice.
func onLattice(x, y int) bool { return x%LatticeStride == 0 && y%LatticeStride == 0 }

// refBackward walks every tile serially through the reference backward
// kernel and merges the per-tile partials in ascending tile order, as
// Backward does. As there, the pixels' terms are summed unnormalized (the
// kernel's norm is 1) and the merged sums are then scaled once by 1/Pixels.
// With lattice set, the loss covers the lattice pixels only, as a sparse
// Backward's does.
func refBackward(cloud *gauss.Cloud, cam camera.Camera, res *Result, target *frame.Frame, loss LossConfig, opts BackwardOptions, lattice bool) *Grads {
	grads := &Grads{}
	if opts.GaussianGrads {
		grads.Mean = make([]vecmath.Vec3, cloud.Len())
		grads.Color = make([]vecmath.Vec3, cloud.Len())
		grads.Logit = make([]float64, cloud.Len())
		grads.LogScale = make([]float64, cloud.Len())
	}
	for pix := range res.Silhouette {
		if lattice && !onLattice(pix%cam.Intr.W, pix/cam.Intr.W) {
			continue
		}
		if !loss.UseSilhouetteMask || res.Silhouette[pix] > loss.SilThreshold {
			grads.Pixels++
		}
	}
	if grads.Pixels == 0 {
		return grads
	}
	var scratch []refContribution
	for tileIdx := 0; tileIdx < res.Tiles.NumTiles(); tileIdx++ {
		n := len(res.Tiles.ListAt(tileIdx))
		var tMean, tColor []vecmath.Vec3
		var tLogit, tLogScale []float64
		if opts.GaussianGrads {
			tMean, tColor = make([]vecmath.Vec3, n), make([]vecmath.Vec3, n)
			tLogit, tLogScale = make([]float64, n), make([]float64, n)
		}
		var pose vecmath.Twist
		var tileLoss float64
		refBackwardOneTile(cloud, cam, res, target, loss, opts, tileIdx, 1,
			tMean, tColor, tLogit, tLogScale, &pose, &tileLoss, &scratch, lattice)
		grads.Loss += tileLoss
		grads.Pose = grads.Pose.Add(pose)
		if opts.GaussianGrads {
			for j, si := range res.Tiles.ListAt(tileIdx) {
				id := res.Splats[si].ID
				grads.Mean[id] = grads.Mean[id].Add(tMean[j])
				grads.Color[id] = grads.Color[id].Add(tColor[j])
				grads.Logit[id] += tLogit[j]
				grads.LogScale[id] += tLogScale[j]
			}
		}
	}
	norm := 1 / float64(grads.Pixels)
	grads.Loss *= norm
	grads.Pose = vecmath.Twist{V: grads.Pose.V.Scale(norm), W: grads.Pose.W.Scale(norm)}
	for id := range grads.Mean {
		grads.Mean[id] = grads.Mean[id].Scale(norm)
		grads.Color[id] = grads.Color[id].Scale(norm)
		grads.Logit[id] *= norm
		grads.LogScale[id] *= norm
	}
	return grads
}

// renderSplats runs the production tile pass over already projected splats,
// so tests can inject splats no projection would produce.
func renderSplats(ctx *RenderContext, splats []Splat, cloud *gauss.Cloud, cam camera.Camera, opts Options) *Result {
	res, _ := trainSplats(ctx, splats, cloud, cam, opts, nil, LossConfig{}, BackwardOptions{})
	return res
}

// trainSplats is Train over already projected splats. It derives each splat
// again, as projection would have derived it from the fields the test wrote
// (its scale2 stays the projected Gaussian's).
func trainSplats(ctx *RenderContext, splats []Splat, cloud *gauss.Cloud, cam camera.Camera, opts Options,
	target *frame.Frame, loss LossConfig, bopts BackwardOptions) (*Result, *Grads) {
	ctx.splats = append(ctx.splats[:0], splats...)
	for i := range ctx.splats {
		ctx.splats[i].derive()
	}
	buildTilesInto(&ctx.tiles, &ctx.tileCursor, &ctx.depthKeys, ctx.splats, cam.Intr)
	return ctx.renderTiles(cloud, cam, opts, target, loss, bopts)
}

// adversarialSplats projects a random cloud and then overwrites splats with
// the shapes the cull box must survive: needle-thin and near-singular conics,
// conics that are not positive-definite or not finite, opacities below the
// blend threshold or not finite, footprints far larger than the image, and
// opaque splats that force early termination.
func adversarialSplats(rng *rand.Rand, cloud *gauss.Cloud, cam camera.Camera) []Splat {
	splats := preprocessInto(nil, cloud, cam, nil)
	nan, inf := math.NaN(), math.Inf(1)
	w, h := float64(cam.Intr.W), float64(cam.Intr.H)
	for i := range splats {
		s := &splats[i]
		switch rng.Intn(17) {
		case 0: // needle along a diagonal
			s.ConA, s.ConC = 2, 2
			s.ConB = 2 * (1 - 1e-4)
			s.Radius = 3 * w
		case 1: // so close to singular that q cancels: whole-tile fallback
			s.ConA, s.ConC = 1, 1
			s.ConB = -(1 - 1e-12)
			s.Radius = 3 * w
		case 2: // axis-aligned needle
			s.ConA, s.ConB, s.ConC = 3, 0, 1e-6
			s.Radius = 3 * w
		case 3: // indefinite
			s.ConA, s.ConB, s.ConC = 0.05, 0.2, 0.05
		case 4: // negative-definite: q < 0 everywhere, Eval's guard returns 1
			s.ConA, s.ConB, s.ConC = -0.1, 0, -0.2
		case 5:
			s.ConA = nan
		case 6:
			s.ConB = inf
		case 7:
			s.ConA, s.ConC = inf, inf
		case 8: // never reaches MinAlpha
			s.Opacity = 0.5 * MinAlpha
		case 9:
			s.Opacity = 0
		case 10:
			s.Opacity = nan
		case 11: // covers the image many times over
			s.ConA, s.ConB, s.ConC = 1e-9, 0, 2e-9
			s.Radius = 1e5
			s.Opacity = 0.3
		case 12: // opaque blanket: early termination
			s.ConA, s.ConB, s.ConC = 1e-4, 0, 1e-4
			s.Radius = 300
			s.Opacity = 0.999
			s.Depth = 0.2 + 0.1*rng.Float64()
		case 13: // center off-image, footprint reaching in
			s.Mean2D = vecmath.Vec2{X: -0.4 * w, Y: 1.3 * h}
			s.ConA, s.ConB, s.ConC = 4e-4, 1e-4, 3e-4
			s.Radius = 2 * w
		case 14:
			s.Mean2D.X = nan
			s.Radius = 2 * w
		case 15: // a needle through pixel centers whose determinant is all rounding error
			s.Mean2D = vecmath.Vec2{X: math.Floor(0.5*w) + 0.5, Y: math.Floor(0.5*h) + 0.5}
			s.ConA, s.ConC = 5e12, 5e12
			s.ConB = -5e12 * (1 - 1e-15)
			s.Radius = 3 * w
		}
	}
	return splats
}

// canonicalNaN returns x, or the one NaN pattern math.NaN returns if x is a
// NaN. The reference tests hash every NaN so: an adversarial splat's pixels
// and gradients are NaN, and which NaN payload a sum of two NaNs keeps is the
// operand order the compiler picks for a commutative add, not the kernel's
// arithmetic. Every other value is still compared bit for bit, and the
// helper and determinism tests, which compare one compiled kernel with
// itself, hash raw bits.
func canonicalNaN(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	return x
}

func canonicalVec3(v vecmath.Vec3) vecmath.Vec3 {
	return vecmath.Vec3{X: canonicalNaN(v.X), Y: canonicalNaN(v.Y), Z: canonicalNaN(v.Z)}
}

func canonicalF64s(s []float64) []float64 {
	out := slices.Clone(s)
	for i, x := range out {
		out[i] = canonicalNaN(x)
	}
	return out
}

func canonicalVec3s(s []vecmath.Vec3) []vecmath.Vec3 {
	out := slices.Clone(s)
	for i, v := range out {
		out[i] = canonicalVec3(v)
	}
	return out
}

// canonicalResult is r's Digest with every NaN as one pattern (canonicalNaN).
func canonicalResult(r *Result) [32]byte {
	c := *r
	c.Color = &frame.Image{W: r.Color.W, H: r.Color.H, Pix: canonicalVec3s(r.Color.Pix)}
	c.Depth = &frame.DepthMap{W: r.Depth.W, H: r.Depth.H, D: canonicalF64s(r.Depth.D)}
	c.Silhouette = canonicalF64s(r.Silhouette)
	return c.Digest()
}

// canonicalGrads is g's Digest with every NaN as one pattern (canonicalNaN).
func canonicalGrads(g *Grads) [32]byte {
	c := *g
	c.Mean, c.Color = canonicalVec3s(g.Mean), canonicalVec3s(g.Color)
	c.Logit, c.LogScale = canonicalF64s(g.Logit), canonicalF64s(g.LogScale)
	c.Pose = vecmath.Twist{V: canonicalVec3(g.Pose.V), W: canonicalVec3(g.Pose.W)}
	c.Loss = canonicalNaN(g.Loss)
	return c.Digest()
}

// TestKernelsMatchFullWalkReference is the exactness gate of the culled
// tile kernel, forward and backward: on seeded random clouds and on
// adversarial splats, with and without the contribution log, frame sizes off
// the tile grid, a Skip set, every Render x Backward pairing of a context
// whose passes run on their caller alone and one a helper races the caller
// for (and a detached one-shot Result), and Train on either context, the
// Result digest (pixels, per-pixel and total counters, contribution log) and
// the Grads digest equal the full-walk reference, with every NaN hashed as
// one pattern (canonicalNaN) and every other value bit for bit.
func TestKernelsMatchFullWalkReference(t *testing.T) {
	logs := []Options{{}, {LogContribution: true}}
	bopts := []BackwardOptions{
		{GaussianGrads: true, PoseGrads: true},
		{GaussianGrads: true},
		{PoseGrads: true},
		{},
	}
	sizes := []struct{ w, h int }{{64, 48}, {50, 37}, {16, 16}, {97, 33}}
	rng := rand.New(rand.NewSource(2026))
	ways, stop := twoWays()
	defer stop()
	// The render side: a warm context each way, a fresh one (a detached
	// one-shot Result), and the helped context again, warm from its backward.
	renders := []way{ways[0], {"one-shot", nil}, ways[1], ways[1]}
	trial := 0
	for _, adversarial := range []bool{false, true} {
		for _, sz := range sizes {
			for _, lo := range logs {
				trial++
				cam := testCam(sz.w, sz.h)
				cloud := randomCloud(rng, 20+rng.Intn(60))
				if rng.Intn(2) == 0 {
					lo.Skip = make([]bool, cloud.Len()-rng.Intn(3)) // may be shorter than the cloud
					for id := range lo.Skip {
						lo.Skip[id] = rng.Intn(4) == 0
					}
				}
				var splats []Splat
				if adversarial {
					splats = adversarialSplats(rng, cloud, cam)
				} else {
					splats = preprocessInto(nil, cloud, cam, lo.Skip)
				}
				tgt := Render(randomCloud(rng, 12), cam, Options{})
				target := &frame.Frame{Color: tgt.Color, Depth: tgt.NormalizedDepth()}

				want := refRender(splats, cloud.Len(), cam, lo)
				wantDigest := canonicalResult(want)
				name := fmt.Sprintf("trial %d (adversarial=%v %dx%d log=%v)",
					trial, adversarial, sz.w, sz.h, lo.LogContribution)
				for i, r := range renders {
					ctx := r.ctx
					if ctx == nil {
						ctx = NewRenderContext()
					}
					var got *Result
					if adversarial {
						got = renderSplats(ctx, splats, cloud, cam, lo)
					} else {
						got = ctx.Render(cloud, cam, lo)
					}
					if got.AlphaOps != want.AlphaOps || got.BlendOps != want.BlendOps {
						t.Fatalf("%s, %s render: ops %d/%d, reference %d/%d",
							name, r.name, got.AlphaOps, got.BlendOps, want.AlphaOps, want.BlendOps)
					}
					if canonicalResult(got) != wantDigest {
						t.Fatalf("%s, %s render: render digest differs from the full-walk reference", name, r.name)
					}
					lc := DefaultMappingLoss()
					if (trial+i)%2 == 0 {
						lc = DefaultTrackingLoss()
						lc.SilThreshold = 0.5
					}
					bo := bopts[(trial+i)%len(bopts)]
					wantG := canonicalGrads(refBackward(cloud, cam, want, target, lc, bo, false))
					for _, b := range ways {
						if canonicalGrads(b.ctx.Backward(cloud, cam, got, target, lc, bo)) != wantG {
							t.Fatalf("%s, %s render, %s backward, %+v: gradient digest differs from the full-walk reference",
								name, r.name, b.name, bo)
						}
					}
					for _, b := range ways {
						var tr *Result
						var tg *Grads
						if adversarial {
							tr, tg = trainSplats(b.ctx, splats, cloud, cam, lo, target, lc, bo)
						} else {
							tr, tg = b.ctx.Train(cloud, cam, lo, target, lc, bo)
						}
						if canonicalResult(tr) != wantDigest || canonicalGrads(tg) != wantG {
							t.Fatalf("%s, %s train, %+v: Result or gradient digest differs from the full-walk reference",
								name, b.name, bo)
						}
					}
				}
			}
		}
	}
}

// TestTileOrderMatchesReference checks the one-sort table build against
// refBuildTiles: the offsets and entries are equal, byte for byte, on random
// clouds whose depths are forced into ties (and some into +-Inf and NaN), on
// clouds dense enough that tables run past 32 entries, and on adversarial
// splats, through one context whose scratch stays warm across frame sizes.
func TestTileOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := NewRenderContext()
	sizes := []struct{ w, h int }{{64, 48}, {50, 37}, {16, 16}, {97, 33}}
	longest := 0
	for trial := 0; trial < 24; trial++ {
		sz := sizes[trial%len(sizes)]
		cam := testCam(sz.w, sz.h)
		var splats []Splat
		switch trial % 3 {
		case 0: // forced ties and non-finite depths
			splats = preprocessInto(nil, randomCloud(rng, 30+rng.Intn(60)), cam, nil)
			levels := []float64{1, 1.5, 2, math.Inf(1), math.Inf(-1), math.NaN()}
			for i := range splats {
				if rng.Intn(3) != 0 {
					splats[i].Depth = levels[rng.Intn(len(levels))]
				}
			}
		case 1: // long tables
			splats = preprocessInto(nil, randomCloud(rng, 300+rng.Intn(200)), cam, nil)
			for i := range splats {
				splats[i].Depth = float64(rng.Intn(8)) // ties within long tables
			}
		case 2:
			splats = adversarialSplats(rng, randomCloud(rng, 40+rng.Intn(60)), cam)
		}
		want := refBuildTiles(splats, cam.Intr)
		buildTilesInto(&ctx.tiles, &ctx.tileCursor, &ctx.depthKeys, splats, cam.Intr)
		got := &ctx.tiles
		if got.TW != want.TW || got.TH != want.TH ||
			!slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Entries, want.Entries) {
			t.Fatalf("trial %d (%dx%d, %d splats): tables differ from the per-tile reference", trial, sz.w, sz.h, len(splats))
		}
		for i := 0; i < got.NumTiles(); i++ {
			longest = max(longest, len(got.ListAt(i)))
		}
	}
	if longest <= 32 {
		t.Fatalf("longest table holds %d entries; the test must reach past 32", longest)
	}
}

// TestDepthOrderMatchesComparator: the radix sort puts depth keys built in
// index order into cmpDepthKey's order, ties by index, on the depths the
// table build can meet: ±0 (equal depths), NaN (keyed +Inf), ±Inf,
// subnormals, negative depths of injected splats, all-equal depths (every
// digit shared, so no pass runs) and a scene's spread of depths, at n = 0,
// 1 and 2 and around one digit's bucket count. buildTilesInto's keys, sorted
// through the second half of its key scratch, are the same order.
func TestDepthOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 3 * 5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1.5, 1.5000000000000002}
	depths := map[string]func() float64{
		"special":  func() float64 { return special[rng.Intn(len(special))] },
		"negative": func() float64 { return -rng.Float64() * 5 },
		"equal":    func() float64 { return 2.5 },
		"scene":    func() float64 { return 0.5 + rng.Float64()*8 },
		"mixed": func() float64 {
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float64(rng.Intn(5)) - 2 + rng.Float64()*1e-300
		},
	}
	names := slices.Sorted(maps.Keys(depths))
	bucket := 1 << radixBits
	cam := testCam(64, 48)
	ctx := NewRenderContext()
	for _, name := range names {
		for _, n := range []int{0, 1, 2, 3, bucket - 1, bucket, bucket + 1, 2*bucket + 3, 3000} {
			splats := make([]Splat, n)
			want := make([]depthKey, n)
			for i := range splats {
				d := depths[name]()
				splats[i] = Splat{Mean2D: vecmath.Vec2{X: 30, Y: 20}, Radius: 1, Depth: d}
				if math.IsNaN(d) {
					d = math.Inf(1)
				}
				want[i] = depthKey{depth: d, idx: int32(i)}
			}
			got := slices.Clone(want)
			sortDepthKeys(got, make([]depthKey, n))
			slices.SortFunc(want, cmpDepthKey)
			buildTilesInto(&ctx.tiles, &ctx.tileCursor, &ctx.depthKeys, splats, cam.Intr)
			for i := range want {
				if got[i].idx != want[i].idx || ctx.depthKeys[i].idx != want[i].idx {
					t.Fatalf("%s depths, n %d: position %d holds splat %d (radix) and %d (table build), comparator %d",
						name, n, i, got[i].idx, ctx.depthKeys[i].idx, want[i].idx)
				}
			}
			if len(ctx.depthKeys) != n || cap(ctx.depthKeys) < 2*n {
				t.Fatalf("%s depths, n %d: table build left %d keys in a scratch of %d", name, n, len(ctx.depthKeys), cap(ctx.depthKeys))
			}
		}
	}
}
