package tracker

import (
	"math"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/optim"
	"ags/internal/splat"
	"ags/internal/vecmath"
)

// GSRefiner performs pose optimization by differentiable rendering: N
// iterations of render → loss → pose gradient → Adam step, with the
// Gaussians held fixed (paper §2.2, tracking). With N = N_T (e.g. 200 scaled)
// this is the SplaTAM baseline tracker; with N = Iter_T (e.g. 20) it is
// AGS's fine-grained pose refinement.
//
// Tracking is sparse, as in Splatonic: every pass the refiner makes (the
// RefineBest candidate losses, the iterations, the final best-pose check)
// renders and back-propagates the splat package's fixed pixel lattice, one
// pixel per 2x2 block and the same pixels in every pass, and takes the loss
// over those pixels only. Mapping stays dense. The workload stats are the
// sparse passes': their op counts, Pixels the lattice's size, and the
// representative planes zero off the lattice, so the hardware models charge
// the tracking engine for the lattice's work.
type GSRefiner struct {
	LR float64
	// Deprecated: ignored: a pass's participants are its caller and the
	// crew's helper (see package splat). It remains only because
	// benchmarks/layers.go assigns it, and goes with that assignment.
	Workers int
	// Ctx is the render context every iteration renders through, which
	// keeps the refinement loop allocation-free; the caller sets it before
	// refining. The refiner borrows the context only for the duration of a
	// call — callers may share one context across the tracker and mapper of
	// a pipeline, but not across goroutines. slam draws one from its
	// server's splat.ContextPool for each frame's tracking (the previous
	// frame's mapping renders through another beside it), so the field may
	// change identity between frames.
	Ctx *splat.RenderContext
	// ScalarsOnly makes Refine return the tracking work's scalars without the
	// representative iteration's detail (see trace.RenderStats): the per-pixel
	// planes are never packed. slam sets it once, when it builds
	// a serving session's refiner; the refined pose is identical either way.
	ScalarsOnly bool
}

// NewGSRefiner returns a refiner with SplaTAM-style settings.
func NewGSRefiner() *GSRefiner {
	return &GSRefiner{LR: 2e-3}
}

// renderOptions is what every tracking pass renders with: the lattice only
// (splat.Options.Sparse). A pose has six degrees of freedom and does not need
// every pixel; the map does, so mapping renders dense.
func (r *GSRefiner) renderOptions() splat.Options {
	return splat.Options{Sparse: true}
}

// RefineBest evaluates the loss at each candidate initialization (one
// loss-only Train each: with neither gradient selected the pass takes the
// loss and walks no pixel back) and refines from the best one. A candidate
// whose pass keeps no pixel under the silhouette mask sees none of the map:
// its loss, 0 over nothing, ranks after every candidate with pixels (see
// rankLoss).
// SplaTAM-style trackers use a constant-velocity initialization that
// overshoots badly at motion reversals; keeping the previous pose as a
// fallback candidate caps the initial error at the true inter-frame motion.
//
//ags:hotpath
func (r *GSRefiner) RefineBest(cloud *gauss.Cloud, intr camera.Intrinsics, f *frame.Frame, inits []vecmath.Pose, iters int) (vecmath.Pose, trace.RenderStats) {
	if len(inits) == 0 {
		return vecmath.PoseIdentity(), trace.RenderStats{}
	}
	best := inits[0]
	if len(inits) > 1 {
		bestLoss := math.Inf(1)
		for _, init := range inits {
			cam := camera.Camera{Intr: intr, Pose: init}
			_, grads := r.Ctx.Train(cloud, cam, r.renderOptions(), f, splat.DefaultTrackingLoss(), splat.BackwardOptions{})
			if l := rankLoss(grads); l < bestLoss {
				bestLoss = l
				best = init
			}
		}
	}
	return r.Refine(cloud, intr, f, best, iters)
}

// rankLoss is the loss a tracking pass is ranked by: its loss, or +Inf for a
// pass that kept no pixel, whose loss of 0 says nothing about the pose.
func rankLoss(g *splat.Grads) float64 {
	if g.Pixels == 0 {
		return math.Inf(1)
	}
	return g.Loss
}

// Refine optimizes the camera pose for the frame, starting from init, for
// the given number of iterations. It returns the refined pose and the
// splatting workload stats (accumulated into a trace.RenderStats). The
// twist parameter/gradient vectors are fixed-size stack arrays: the
// per-iteration loop allocates nothing of its own.
//
//ags:hotpath
func (r *GSRefiner) Refine(cloud *gauss.Cloud, intr camera.Intrinsics, f *frame.Frame, init vecmath.Pose, iters int) (vecmath.Pose, trace.RenderStats) {
	var stats trace.RenderStats
	pose := init
	var adam optim.Adam
	var params, prev [6]float64
	best := init
	bestLoss := math.Inf(1)
	for i := 0; i < iters; i++ {
		cam := camera.Camera{Intr: intr, Pose: pose}
		res, grads := r.Ctx.Train(cloud, cam, r.renderOptions(), f, splat.DefaultTrackingLoss(), splat.BackwardOptions{PoseGrads: true})
		stats.Accumulate(res.AlphaOps, res.BlendOps, 2*res.BlendOps,
			int64(len(res.Splats)), int64(res.Tiles.TotalEntries()), int64(res.Pixels()))
		if i == iters-1 && !r.ScalarsOnly {
			// The planes only: no hardware model reads a tracking task's
			// tile lists.
			res.PackDetail(&stats, false)
		}
		if l := rankLoss(grads); l < bestLoss {
			bestLoss = l
			best = pose
		}
		g := [6]float64{grads.Pose.V.X, grads.Pose.V.Y, grads.Pose.V.Z, grads.Pose.W.X, grads.Pose.W.Y, grads.Pose.W.Z}
		prev = params
		adam.Step(params[:], g[:], r.LR)
		step := vecmath.Twist{
			V: vecmath.Vec3{X: params[0] - prev[0], Y: params[1] - prev[1], Z: params[2] - prev[2]},
			W: vecmath.Vec3{X: params[3] - prev[3], Y: params[4] - prev[4], Z: params[5] - prev[5]},
		}
		pose = pose.Retract(step)
	}
	// Evaluate the final pose too, so the best-seen pose is returned.
	if iters > 0 {
		cam := camera.Camera{Intr: intr, Pose: pose}
		_, grads := r.Ctx.Train(cloud, cam, r.renderOptions(), f, splat.DefaultTrackingLoss(), splat.BackwardOptions{})
		if rankLoss(grads) < bestLoss {
			best = pose
		}
	}
	return best, stats
}
