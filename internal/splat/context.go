package splat

import "ags/internal/frame"

// RenderContext owns every buffer the forward and backward passes touch: the
// Result pixel planes, the contribution log and its per-worker scratch, the
// blend log, the sub-tile cull scratch, the projected-splat slice, the CSR
// tile tables, the backward partial-reduction arena, and the gradient outputs.
// Reusing one context across frames makes the steady-state render/backward
// hot path allocation-free — the property the tracker's IterT refinement loop
// and the mapper's MapIters training loop run on (see the package doc's
// lifecycle and aliasing rules).
//
// A RenderContext is not safe for concurrent use. A nil *RenderContext is
// valid: its Render and Backward fall back to the one-shot package functions,
// so callers can thread an optional context without branching.
type RenderContext struct {
	// Forward-pass state.
	splats     []Splat
	tiles      Tiles
	tileCursor []int32 // per-tile write cursor of the CSR build
	color      frame.Image
	depth      frame.DepthMap
	result     Result
	ranges     [][2]int
	ops        []int64       // per-worker {alphaOps, blendOps} pairs
	contrib    []int32       // per-worker contribution scratch (nonContrib ++ touched)
	cull       []tileScratch // per-worker sub-tile cull scratch

	// Backward-pass state.
	arena     backwardArena
	grads     Grads
	bwScratch [][]blendStep // per-worker blend-step scratch
}

// NewRenderContext returns an empty context; buffers are sized lazily from
// the intrinsics and cloud of each call.
func NewRenderContext() *RenderContext {
	return &RenderContext{}
}
