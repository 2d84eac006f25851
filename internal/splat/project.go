// Package splat implements the tile-based 3D Gaussian Splatting pipeline of
// the paper's §2.1: preprocessing (EWA projection of 3D Gaussians to 2D
// splats and tile intersection), depth sorting into per-tile Gaussian tables,
// front-to-back alpha-blended rendering with early termination, and the
// backward pass producing analytic gradients for Gaussian parameters and the
// camera pose. The renderer also captures the per-Gaussian contribution
// statistics that drive AGS's contribution-aware mapping (a Gaussian
// contributes at a pixel exactly when it blends there: the paper's
// Thresh_alpha is MinAlpha, the cutoff 3DGS blends with), and the
// per-pixel/per-tile workload traces the hardware simulator replays.
//
// # Determinism contract
//
// Render, Train and Backward are bit-reproducible whoever does their work.
// Every pass hands out its work from one atomic cursor, and its two
// participants take it until it runs out: the caller and, where a Crew is
// attached to the context (RenderContext.Attach), its helper — a SLAM
// system's producer, which would otherwise wait for its mapping tail. The
// package starts no goroutine of its own. A pass's work is its tiles, or the
// chunks of an index range (ChunkSize elements each) in an Each pass: a
// render or a training iteration (Train) is the projection of the Gaussians,
// an Each pass, and one tile pass, which in Train back-propagates each pixel
// right after rendering it; Backward is a tile pass over a finished Result;
// and a context's owner runs passes of its own per-element work through
// RenderContext.Each (a mapper's Adam step). So a mapping iteration opens
// three passes (projection, tiles, Adam) and a tracking iteration two. Each
// participant has a scratch slot of its own (cull scratch, blend steps,
// counters). A chunk writes its own elements only, and a projection's chunks
// write their own slot ranges, whose gaps the caller then closes in chunk
// order. Every reduction that crosses a tile runs over a fixed tree or is
// exact: raster order within a tile, ascending tile order across tiles for
// the per-tile loss and gradient partials, which are sums over the pixels,
// scaled by 1/Pixels once merged, and integer sums for the workload counters,
// the masked-pixel count and the contribution log, which are exact in any
// order. The splats,
// color/depth/silhouette images, the contribution log,
// AlphaOps/BlendOps, and all gradient buffers are therefore byte-identical
// whichever participant took which tile or chunk, with or without a helper,
// at any GOMAXPROCS. Callers may rely on this for exact A/B comparisons at
// full parallelism; Result.Digest and Grads.Digest exist to assert it
// cheaply.
//
// A pass's caller returns once the helper, if it joined, has left the pass.
// A tile or chunk that panics on the helper is recovered there and handed to
// the pass, whose caller panics with it (and the helper's stack) once the
// pass is through, so every panic of a pass surfaces on its caller's
// goroutine. A pass allocates nothing to describe
// itself: its state lives in the context, its participants' entry points are
// methods, and an Each pass's work is an interface the caller passes a
// pointer in.
//
// The workload counters count modelled work, not host work. AlphaOps,
// PerPixelAlpha and Touched count Gaussian-table visits — what the GPE array
// walks: every entry of a tile's table at every pixel of the tile, up to and
// including the entry that terminated the pixel — and NonContrib counts the
// visits that did not blend. The host evaluates far fewer: an entry is
// evaluated only at the pixels of a conservative box around the ellipse
// where its alpha can reach MinAlpha,
// the exponential only inside that ellipse, and the counters are
// reconstructed exactly from the loop index at termination. The full-walk
// kernels this replaced live on in reference_test.go, where every output is
// compared with theirs byte for byte.
//
// What the host pays per pair, per entry and per splat is kept apart. A splat
// carries what its tiles read of it: projection computes the box's splat-only
// part — the cutoff with its logarithm and the ellipse's extents with their
// square roots — which each tile only clips, and the per-splat factors of
// Backward's logit and scale gradients, once per splat and render. The tables
// come from one sort of the splats on (depth, index), whose order the fill
// keeps, so each table is born front to back and no tile sorts. That sort is
// a stable LSD radix sort on the depths' bits, eight bits a pass, over keys
// built in index order, so ties keep index order; a digit every key shares is
// skipped. The one
// per-pair transcendental, the falloff's exponential, is the package's own
// (exp.go): a range reduction onto a 64-entry table of 2^(j/64) and a
// degree-5 polynomial, within 4 ulp of math.Exp on the falloff's range. It is plain float64 Go with no libm
// call under it, so no host CPU feature chooses its bits, as math.Exp's
// run-time FMA dispatch does on amd64.
//
// # Sparse tracking lattice
//
// A pose has six degrees of freedom and does not need every pixel; the map
// does. So a pass may render the tracking lattice only (Options.Sparse): one
// pixel per LatticeStride x LatticeStride block, the one at even x and y —
// 64 of a full tile's 256, the same pixels in every pass. Tiles start at
// multiples of TileSize, so a sparse pass steps through each tile's rows and
// columns by LatticeStride from its corner. Every lattice pixel is
// bit-identical to the dense render's, in all four planes and both per-pixel
// counters, because a pixel's blend depends on nothing but the pixel. Every
// off-lattice pixel is written empty: colour, depth and silhouette 0,
// PerPixelAlpha and PerPixelBlend 0. The workload counters
// therefore count the lattice's work only: AlphaOps and BlendOps sum the
// lattice's table visits and blends, Touched and NonContrib count each entry
// at its tile's lattice pixels, and Pixels returns the lattice's size. The
// Result records that it is sparse, and a sparse Train, like Backward on a
// sparse Result, walks the lattice only: its loss, its gradients and
// Grads.Pixels cover lattice pixels, whatever the loss's mask, so an
// unmasked sparse loss is the dense loss restricted to the lattice
// (reference_test.go's full-walk kernel, restricted the same way, is the
// gate). The tracker renders every pass sparse; mapping, densification and
// PSNR evaluation render dense. A context that rendered sparse keeps no
// trace of it: the next dense render overwrites every pixel.
//
// # Backward's re-walk
//
// A pixel's gradients depend on nothing but its own blends and the loss's
// one global scale, 1/Pixels, which is applied to the merged sums once the
// pass is through. So Train needs no record of the forward pass: each pixel's
// blends (entry, falloff G, alpha, transmittance) wait in the participant's
// step scratch until the pixel is walked back. Backward, which takes a Result
// some earlier pass produced, re-walks its tiles with the same kernel,
// recomputing each pixel's blends from the Result's splats and tables — bit
// for bit those of the pass that produced it, since a pixel's blend depends
// on nothing but the pixel — and writes nothing of the Result. So its Grads
// are Train's, Render and Backward may use different participants or
// contexts, and Backward may take a Result from any context.
//
// # Render contexts
//
// Every pass runs inside a RenderContext, which owns every buffer it
// touches: the Result pixel planes, the contribution log, the participants'
// scratch slots, the projected-splat slice, the CSR tile tables, and the
// partial-reduction arena plus gradient outputs. A long-lived context makes
// the steady-state hot path allocation-free; the package-level Render is
// one-shot: it runs in a fresh context of its own and returns that context's
// output, which nothing else will ever write.
//
// Multi-stream hosts share contexts through a ContextPool: a bounded LIFO
// stack with hit/miss/eviction/resident-bytes metrics. Acquire never blocks
// (a miss allocates fresh), Release retains at most Capacity idle contexts
// and evicts the oldest beyond that, a context serves any frame size, and
// pooled contexts carry nothing between borrowers that affects outputs —
// rendering through a recycled context is byte-identical to a fresh one,
// which is what lets many SLAM sessions interleave on one pool without
// perturbing each other (see package slam's Server).
//
// Lifecycle and aliasing rules:
//
//   - A context is NOT safe for concurrent use. One goroutine, one context;
//     within a call its passes (an Each pass too) are shared with the
//     crew's helper only, never across contexts. A context goes back to a
//     pool detached from its crew.
//   - (*RenderContext).Render and Train return a *Result whose buffers are
//     owned by the context and valid until its next Render or Train call.
//     Backward only reads the Result — it never writes a Result-aliased
//     buffer, and is contractually barred from doing so — so a Result stays
//     valid through a Backward on it, and the train→read pattern of the
//     tracker/mapper loops is safe. Callers that retain any Result buffer
//     across renders must copy it first.
//   - Train and Backward likewise return a *Grads owned by the context,
//     valid until its next Train or Backward call.
//   - A context keeps every buffer across calls whose options leave it out:
//     an unlogged pass keeps the contribution log's storage, a pose-only
//     one the per-Gaussian gradients', and the next pass that computes them
//     overwrites it. Result and Grads expose such a buffer as nil when
//     their pass did not compute it.
//   - The one-shot Render returns caller-owned buffers with no aliasing: the
//     context it ran in is dropped on return.
//   - A context re-sizes itself lazily from the intrinsics and cloud of
//     each call, so mixed frame sizes are safe (and tested).
//   - Contexted and one-shot calls are byte-identical to each other — the
//     determinism contract above holds across both, with or without a
//     helper.
package splat

import (
	"math"

	"ags/internal/camera"
	"ags/internal/gauss"
	"ags/internal/vecmath"
)

const (
	// TileSize is the pixel width/height of one rendering tile, matching the
	// 4x4-GPE-array granularity of the AGS mapping engine (each array covers
	// a 4x4 block; a 16x16 tile is 16 array passes).
	TileSize = 16
	// TransmittanceEps is the early-termination threshold on accumulated
	// transmittance (paper §2.1: rendering stops when T < 1e-4).
	TransmittanceEps = 1e-4
	// MinAlpha is the smallest alpha that participates in blending; the
	// standard 3DGS kernel discards fainter contributions (1/255).
	MinAlpha = 1.0 / 255.0
	// LatticeStride is the spacing of the tracking lattice a sparse pass
	// renders (Options.Sparse): one pixel per 2x2 block, a quarter of a
	// tile's 256.
	LatticeStride = 2
	// MaxAlpha clamps the occlusion factor, as in the reference 3DGS kernel.
	MaxAlpha = 0.99
	// covBlur is the screen-space dilation added to the 2D covariance
	// diagonal (anti-aliasing floor, 0.3 px^2 in the reference kernel).
	covBlur = 0.3
)

// Splat is a Gaussian projected to the image plane (a "2D Gaussian splat").
// The 2D covariance itself is not stored: everything the render and backward
// hot loops need from it is folded into the conic coefficients and Radius at
// projection time, keeping the per-frame splat array lean.
type Splat struct {
	ID      int          // stable Gaussian ID in the cloud
	Mean2D  vecmath.Vec2 // pixel-space center
	Depth   float64      // camera-space depth
	Color   vecmath.Vec3
	Opacity float64
	Radius  float64      // conservative pixel radius (3 sigma)
	CamPt   vecmath.Vec3 // camera-space center (for pose gradients)
	DU, DV  vecmath.Vec3 // projection Jacobian rows at CamPt
	JJT     vecmath.Mat2 // J*J^T term (for isotropic scale gradients)

	// Conic coefficients of the inverse 2D covariance (with blur): for
	// inverse [a b; b c], ConA = a, ConB = b, ConC = c. The covariance is
	// symmetrized before inversion, so its inverse is symmetric bitwise and
	// the conic loses nothing; the per-pixel falloff becomes straight-line
	// arithmetic with no matrix indirection.
	ConA, ConB, ConC float64

	// What the tile kernels read besides the fields above, computed at
	// projection: the cull geometry the render's table entries clip to
	// their tiles, and Backward's per-splat factors of the Gaussian
	// gradients — sigmoid'(logit), through Opacity, and the Gaussian's mean
	// squared scale. derive computes the first two from the fields above.
	cull    cullGeom
	sigGrad float64
	scale2  float64
}

// projectInto projects one Gaussian through the camera into s, field by
// field, and reports whether it projects: false when the Gaussian is behind
// the near plane or degenerate. It leaves s partly written when it does
// not, and writes neither s.ID nor the fields derive computes. Writing in
// place spares preprocessing a cleared Splat and a copy of it per Gaussian.
//
//ags:hotpath
func projectInto(s *Splat, g *gauss.Gaussian, cam camera.Camera) bool {
	pc := cam.Pose.Apply(g.Mean)
	if pc.Z < 0.05 {
		return false
	}
	mean2, ok := cam.Intr.Project(pc)
	if !ok {
		return false
	}
	du, dv := cam.Intr.ProjectionJacobian(pc)
	// Sigma2D = J W Sigma3D W^T J^T where W is the view rotation and J the
	// 2x3 projection Jacobian.
	w := cam.Pose.R.Mat3()
	sc := g.Scale()
	covCam := w.Mul(gauss.IsotropicCov(sc)).Mul(w.Transpose())
	a := covCam.MulVec(du)
	b := covCam.MulVec(dv)
	cov := vecmath.Mat2{
		M00: du.Dot(a) + covBlur,
		M01: du.Dot(b),
		M10: dv.Dot(a),
		M11: dv.Dot(b) + covBlur,
	}
	// Numerical symmetry.
	sym := 0.5 * (cov.M01 + cov.M10)
	cov.M01, cov.M10 = sym, sym
	inv, invertible := cov.Inverse()
	if !invertible {
		return false
	}
	l1, _ := cov.Eigenvalues()
	s.Mean2D = mean2
	s.Depth = pc.Z
	s.Color = g.Color
	s.Opacity = g.Opacity()
	s.Radius = 3 * math.Sqrt(math.Max(l1, 0))
	s.CamPt = pc
	s.DU, s.DV = du, dv
	s.JJT = vecmath.Mat2{
		M00: du.Dot(du), M01: du.Dot(dv),
		M10: dv.Dot(du), M11: dv.Dot(dv),
	}
	s.ConA, s.ConB, s.ConC = inv.M00, inv.M01, inv.M11
	// The mean of the three per-axis squares the Gaussians had when they
	// were anisotropic. It is not always bitwise s², and every trained map
	// depends on its bits (TestBackwardScaleFactorIsMeanOfThreeSquares).
	s.scale2 = (sc*sc + sc*sc + sc*sc) / 3
	return true
}

// derive computes the splat's cull geometry and sigmoid'(logit) from its
// other fields. Projection calls it on every splat it keeps.
//
//ags:hotpath
func (s *Splat) derive() {
	s.cull = cullGeomOf(s)
	s.sigGrad = gauss.SigmoidGrad(s.Opacity)
}

// projectPass is a projection: its inputs, the splat slots it projects
// into and, per chunk, how many splats the chunk kept. It is the work of an
// Each pass over the Gaussian IDs.
type projectPass struct {
	cloud  *gauss.Cloud
	cam    camera.Camera
	skip   []bool
	splats []Splat
	kept   []int32
}

// project projects every Gaussian in the cloud into the context's splats
// (step 1 of Fig. 2), culling those that fall outside the image or behind
// the camera. skip, when non-nil, suppresses Gaussians whose ID is flagged
// (selective mapping). It is an Each pass over the Gaussian IDs: room for
// every Gaussian is made first, at least doubling the capacity when it must
// grow, and each chunk projects its Gaussians into its own slot range,
// packed to the range's front, and records how many it kept. The caller then
// closes the gaps in chunk order, so the splats are those of one walk of the
// cloud, in ID order, whoever projected which chunk.
//
//ags:hotpath
func (ctx *RenderContext) project(cloud *gauss.Cloud, cam camera.Camera, skip []bool) {
	n := cloud.Len()
	if cap(ctx.splats) < n {
		ctx.splats = make([]Splat, n, max(n, 2*cap(ctx.splats)))
	}
	ctx.splats = ctx.splats[:n]
	ctx.chunkKept = resized(ctx.chunkKept, ceilDiv(n, ChunkSize))
	pp := &ctx.pass.proj
	*pp = projectPass{cloud: cloud, cam: cam, skip: skip, splats: ctx.splats, kept: ctx.chunkKept}
	ctx.Each(n, pp)
	*pp = projectPass{} // a context keeps no caller's cloud alive
	kept := 0
	for c, k := range ctx.chunkKept {
		if lo := c * ChunkSize; lo != kept {
			copy(ctx.splats[kept:], ctx.splats[lo:lo+int(k)])
		}
		kept += int(k)
	}
	ctx.splats = ctx.splats[:kept]
}

// Chunk projects the Gaussians lo to hi-1, a chunk of the pass, into the
// slots of the same range.
//
//ags:hotpath
func (pp *projectPass) Chunk(lo, hi int) {
	pp.kept[lo/ChunkSize] = int32(projectRange(pp.splats[lo:hi], pp.cloud, pp.cam, pp.skip, lo, hi))
}

// projectRange projects the Gaussians lo to hi-1 of the cloud, in ID order,
// straight into dst's slots, and returns how many it kept: those skip does
// not flag that project and whose radius reaches the image. Every splat it
// keeps is derived.
//
//ags:hotpath
func projectRange(dst []Splat, cloud *gauss.Cloud, cam camera.Camera, skip []bool, lo, hi int) int {
	n := 0
	for id := lo; id < hi; id++ {
		if skip != nil && id < len(skip) && skip[id] {
			continue
		}
		s := &dst[n]
		if !projectInto(s, cloud.At(id), cam) {
			continue
		}
		// Cull splats entirely outside the image (with radius margin).
		if s.Mean2D.X+s.Radius < 0 || s.Mean2D.Y+s.Radius < 0 ||
			s.Mean2D.X-s.Radius >= float64(cam.Intr.W) ||
			s.Mean2D.Y-s.Radius >= float64(cam.Intr.H) {
			continue
		}
		s.ID = id
		s.derive()
		n++
	}
	return n
}

// Eval returns the unnormalized Gaussian falloff G = exp(-0.5 d^T CovInv d)
// at pixel coordinates (x, y), evaluated through the precomputed conic
// coefficients. Falloffs small enough that alpha must land below MinAlpha
// for any opacity (q > 12.5 => G < MinAlpha/2) return 0 without evaluating
// the exponential; blending skips them either way, so behavior is unchanged
// and the hot loop avoids most exp calls.
//
//ags:hotpath
func (s *Splat) Eval(x, y float64) float64 {
	dx := x - s.Mean2D.X
	dy := y - s.Mean2D.Y
	return falloff(dx*(s.ConA*dx+s.ConB*dy) + dy*(s.ConB*dx+s.ConC*dy))
}

// falloff maps the squared Mahalanobis distance q to G (see Eval).
//
//ags:hotpath
func falloff(q float64) float64 {
	if q < 0 {
		return 1 // numerical guard: q is a Mahalanobis distance, >= 0
	}
	if q > qCutMax {
		return 0
	}
	return expNeg(-0.5 * q)
}

// Alpha returns the clamped occlusion factor at (x, y) together with the
// falloff G (callers need G for gradients).
//
//ags:hotpath
func (s *Splat) Alpha(x, y float64) (alpha, g float64) {
	g = s.Eval(x, y)
	return clampAlpha(s.Opacity, g), g
}

// clampAlpha returns the clamped occlusion factor for falloff g.
//
//ags:hotpath
func clampAlpha(opacity, g float64) float64 {
	alpha := opacity * g
	if alpha > MaxAlpha {
		alpha = MaxAlpha
	}
	return alpha
}
