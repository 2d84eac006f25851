package tracker

import (
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
	LR      float64
	Loss    splat.LossConfig
	Workers int
	// Ctx is the render context every iteration renders through, which
	// keeps the refinement loop allocation-free; the caller sets it before
	// refining. The refiner borrows the context only for the duration of a
	// call — callers may share one context across the tracker and mapper of
	// a pipeline, but not across goroutines. slam attaches one from its
	// server's splat.ContextPool for each frame and releases it when the
	// frame's mapping ends, so the field may change identity between frames.
	Ctx *splat.RenderContext
	// ScalarsOnly makes Refine return the tracking work's scalars without the
	// representative iteration's detail (see trace.RenderStats): the per-pixel
	// planes are never packed. slam sets it once, when it builds
	// a serving session's refiner; the refined pose is identical either way.
	ScalarsOnly bool
}

// NewGSRefiner returns a refiner with SplaTAM-style settings.
func NewGSRefiner() *GSRefiner {
	return &GSRefiner{LR: 2e-3, Loss: splat.DefaultTrackingLoss()}
}

// renderOptions is what every tracking pass renders with: the lattice only
// (splat.Options.Sparse). A pose has six degrees of freedom and does not need
// every pixel; the map does, so mapping renders dense.
func (r *GSRefiner) renderOptions() splat.Options {
	return splat.Options{Workers: r.Workers, Sparse: true}
}

// RefineBest evaluates the loss at each candidate initialization (one
// forward render and one loss-only Backward each: with neither gradient
// selected the pass stops after the loss) and refines from the best one.
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
		bestLoss := -1.0
		for _, init := range inits {
			cam := camera.Camera{Intr: intr, Pose: init}
			res := r.Ctx.Render(cloud, cam, r.renderOptions())
			grads := r.Ctx.Backward(cloud, cam, res, f, r.Loss, splat.BackwardOptions{Workers: r.Workers})
			if bestLoss < 0 || grads.Loss < bestLoss {
				bestLoss = grads.Loss
				best = init
			}
		}
	}
	return r.Refine(cloud, intr, f, best, iters)
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
	adam := optim.NewAdam(r.LR)
	var params, prev [6]float64
	best := init
	bestLoss := -1.0
	for i := 0; i < iters; i++ {
		cam := camera.Camera{Intr: intr, Pose: pose}
		res := r.Ctx.Render(cloud, cam, r.renderOptions())
		grads := r.Ctx.Backward(cloud, cam, res, f, r.Loss, splat.BackwardOptions{PoseGrads: true, Workers: r.Workers})
		stats.Accumulate(res.AlphaOps, res.BlendOps, 2*res.BlendOps,
			int64(len(res.Splats)), int64(res.Tiles.TotalEntries()), int64(res.Pixels()))
		if i == iters-1 && !r.ScalarsOnly {
			// The planes only: no hardware model reads a tracking task's
			// tile lists.
			res.PackDetail(&stats, false)
		}
		if bestLoss < 0 || grads.Loss < bestLoss {
			bestLoss = grads.Loss
			best = pose
		}
		g := [6]float64{grads.Pose.V.X, grads.Pose.V.Y, grads.Pose.V.Z, grads.Pose.W.X, grads.Pose.W.Y, grads.Pose.W.Z}
		prev = params
		adam.Step(params[:], g[:])
		step := vecmath.Twist{
			V: vecmath.Vec3{X: params[0] - prev[0], Y: params[1] - prev[1], Z: params[2] - prev[2]},
			W: vecmath.Vec3{X: params[3] - prev[3], Y: params[4] - prev[4], Z: params[5] - prev[5]},
		}
		pose = pose.Retract(step)
	}
	// Evaluate the final pose too, so the best-seen pose is returned.
	if iters > 0 {
		cam := camera.Camera{Intr: intr, Pose: pose}
		res := r.Ctx.Render(cloud, cam, r.renderOptions())
		grads := r.Ctx.Backward(cloud, cam, res, f, r.Loss, splat.BackwardOptions{Workers: r.Workers})
		if grads.Loss < bestLoss {
			best = pose
		}
	}
	return best, stats
}
