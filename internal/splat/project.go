// Package splat implements the tile-based 3D Gaussian Splatting pipeline of
// the paper's §2.1: preprocessing (EWA projection of 3D Gaussians to 2D
// splats and tile intersection), per-tile depth sorting into Gaussian tables,
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
// Render and Backward are bit-reproducible: the tile grid is partitioned into
// static contiguous per-worker shards, and every cross-tile reduction runs
// over a fixed tree — raster order within a tile, ascending tile order across
// tiles (per-tile float partials in Backward), fixed worker order for the
// integer workload counters. Color/depth/silhouette/transmittance images, the
// contribution log, AlphaOps/BlendOps, and all gradient buffers are therefore
// byte-identical for every Options.Workers / BackwardOptions.Workers value,
// including the serial Workers=1 path. Callers may rely on this for exact A/B
// comparisons at full parallelism; Result.Digest and Grads.Digest exist to
// assert it cheaply.
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
// transmittance 1, PerPixelAlpha and PerPixelBlend 0. The workload counters
// therefore count the lattice's work only: AlphaOps and BlendOps sum the
// lattice's table visits and blends, Touched and NonContrib count each entry
// at its tile's lattice pixels, Pixels returns the lattice's size, and the
// blend log holds the lattice's blends. The Result records that it is sparse,
// and Backward walks the lattice only: its loss, its gradients and
// Grads.Pixels cover lattice pixels, whatever the loss's mask, so an
// unmasked sparse loss is the dense loss restricted to the lattice
// (reference_test.go's full-walk kernel, restricted the same way, is the
// gate). The tracker renders every pass sparse; mapping, densification and
// PSNR evaluation render dense. A context that rendered sparse keeps no
// trace of it: the next dense render overwrites every pixel.
//
// # Blend log
//
// Render records every blend it performs — the entry's position in its tile's
// table and the falloff G, 12 bytes — and Backward walks that log instead of
// re-evaluating alphas: it recomputes alpha = min(Opacity*G, MaxAlpha) and the
// transmittance in the order Render formed them, so gradients are bit for bit
// those of a replay. The log belongs to the Result: one shard per Render
// worker, each tile's (shard, offset), and a pixel's run length in
// PerPixelBlend, so Render and Backward may use different Workers values and
// Backward may take a Result from any context. It follows the Result's
// aliasing rules below (a contexted Result's log is overwritten by the
// context's next Render; a one-shot Result's context renders nothing else)
// and Backward only reads it. It holds 12 B x BlendOps; a context's shards grow by
// doubling and are never shrunk, so a warm context retains at most twice the
// log of its largest render (FootprintBytes counts it).
//
// # Render contexts
//
// Both passes run inside a RenderContext, which owns every buffer they touch:
// the Result pixel planes, the contribution log and its per-worker scratch,
// the blend log and the per-worker cull scratch, the projected-splat slice,
// the CSR tile tables, and the backward pass's partial-reduction arena plus
// gradient outputs. A long-lived context makes the steady-state hot path
// allocation-free; the package-level Render and Backward functions are
// one-shot: each runs in a fresh context of its own and returns that
// context's output, which nothing else will ever write.
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
//     the parallelism knob is Options.Workers inside a call, not contexts.
//   - (*RenderContext).Render returns a *Result whose buffers are owned by
//     the context and valid until its next Render call. Backward
//     only reads the Result — it never writes a Result-aliased buffer, and
//     is contractually barred from doing so — so the render→backward→read
//     pattern of the tracker/mapper loops is safe. Callers that retain any
//     Result buffer across renders must copy it first.
//   - (*RenderContext).Backward likewise returns a *Grads owned by the
//     context, valid until its next Backward call.
//   - A context keeps every buffer across calls whose options leave it out:
//     an unlogged Render keeps the contribution log's storage, a pose-only
//     Backward the per-Gaussian gradients', and the next pass that computes
//     them overwrites it. Result and Grads expose such a buffer as nil when
//     their pass did not compute it.
//   - The one-shot package functions return caller-owned buffers with no
//     aliasing: the context they ran in is dropped on return.
//   - A context re-sizes itself lazily from the intrinsics and cloud of
//     each call, so mixed frame sizes are safe (and tested).
//   - Contexted and one-shot calls are byte-identical to each other — the
//     determinism contract above holds across both, for every Workers value.
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
}

// ProjectGaussian projects one Gaussian through the camera. ok is false when
// the Gaussian is behind the near plane or degenerate.
//
//ags:hotpath
func ProjectGaussian(g *gauss.Gaussian, cam camera.Camera) (Splat, bool) {
	pc := cam.Pose.Apply(g.Mean)
	if pc.Z < 0.05 {
		return Splat{}, false
	}
	mean2, ok := cam.Intr.Project(pc)
	if !ok {
		return Splat{}, false
	}
	du, dv := cam.Intr.ProjectionJacobian(pc)
	// Sigma2D = J W Sigma3D W^T J^T where W is the view rotation and J the
	// 2x3 projection Jacobian.
	w := cam.Pose.R.Mat3()
	covCam := w.Mul(g.Cov3()).Mul(w.Transpose())
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
		return Splat{}, false
	}
	l1, _ := cov.Eigenvalues()
	radius := 3 * math.Sqrt(math.Max(l1, 0))
	jjt := vecmath.Mat2{
		M00: du.Dot(du), M01: du.Dot(dv),
		M10: dv.Dot(du), M11: dv.Dot(dv),
	}
	return Splat{
		ID:      -1,
		Mean2D:  mean2,
		Depth:   pc.Z,
		Color:   g.Color,
		Opacity: g.Opacity(),
		Radius:  radius,
		CamPt:   pc,
		DU:      du,
		DV:      dv,
		JJT:     jjt,
		ConA:    inv.M00,
		ConB:    inv.M01,
		ConC:    inv.M11,
	}, true
}

// preprocessInto projects every Gaussian in the cloud (step 1 of Fig. 2),
// culling those that fall outside the image or behind the camera, and appends
// the survivors to splats (reusing its capacity — the RenderContext's
// per-frame projection path). skip, when non-nil, suppresses Gaussians whose
// ID is flagged (selective mapping).
//
//ags:hotpath
func preprocessInto(splats []Splat, cloud *gauss.Cloud, cam camera.Camera, skip []bool) []Splat {
	for id := range cloud.Gaussians {
		if skip != nil && id < len(skip) && skip[id] {
			continue
		}
		s, ok := ProjectGaussian(cloud.At(id), cam)
		if !ok {
			continue
		}
		// Cull splats entirely outside the image (with radius margin).
		if s.Mean2D.X+s.Radius < 0 || s.Mean2D.Y+s.Radius < 0 ||
			s.Mean2D.X-s.Radius >= float64(cam.Intr.W) ||
			s.Mean2D.Y-s.Radius >= float64(cam.Intr.H) {
			continue
		}
		s.ID = id
		splats = append(splats, s)
	}
	return splats
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
	return math.Exp(-0.5 * q)
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
