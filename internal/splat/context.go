package splat

import (
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/vecmath"
)

// RenderContext owns every buffer its passes touch: the Result pixel planes,
// the contribution log, each participant's scratch slot (cull scratch, blend
// steps, counters), the projected-splat slice with its per-chunk counts, the
// CSR tile tables with the depth sort's keys, the loss and gradient
// partial-reduction arena, and the gradient outputs.
// Reusing one context across frames makes the steady-state render/train hot
// path allocation-free — the property the tracker's IterT refinement loop
// and the mapper's MapIters training loop run on (see the package doc's
// lifecycle and aliasing rules). The buffers only some option sets fill (the
// contribution log, the per-Gaussian gradients) are kept across passes that
// leave them out, so a pipeline alternating tracking passes (pose gradients,
// no log) with mapping passes (Gaussian gradients, logged) re-makes none of
// them; Result and Grads still expose them as nil when a pass did not compute
// them.
//
// A RenderContext is not safe for concurrent use: one goroutine calls it,
// and only the helper of the crew attached to it (Attach) takes tiles and
// chunks of its passes beside that goroutine. Callers without one use the
// one-shot Render, which runs in a fresh context each call.
type RenderContext struct {
	// Forward-pass state.
	splats     []Splat
	tiles      Tiles
	tileCursor []int32    // per-tile write cursor of the CSR build
	depthKeys  []depthKey // the CSR build's front-to-back order, and its radix sort's other buffer
	chunkKept  []int32    // per projection chunk: the splats it kept
	color      frame.Image
	depth      frame.DepthMap
	result     Result
	// The contribution log's storage, exposed as Result.NonContrib/Touched
	// by logged renders only.
	nonContrib, touched []int32

	// Training state (Train and Backward).
	arena backwardArena
	grads Grads
	// The per-Gaussian gradients' storage, exposed through grads by passes
	// with GaussianGrads only.
	gMean, gColor     []vecmath.Vec3
	gLogit, gLogScale []float64

	// Pass state: the open pass, one scratch slot per participant (the
	// caller's and the helper's), and the crew whose helper may join.
	pass  passState
	slots [2]slot
	crew  *Crew

	// frozen is the copy of a map Freeze made, rendered in place of a map
	// that another goroutine goes on changing.
	frozen gauss.Cloud
}

// NewRenderContext returns an empty context; buffers are sized lazily from
// the intrinsics and cloud of each call.
func NewRenderContext() *RenderContext {
	return &RenderContext{}
}

// Freeze copies c into the context and returns the copy, which stays as it
// is while c changes: a caller renders the copy through this context while
// another goroutine goes on writing c. The copy is valid until the next Freeze
// or the context's Release. Its storage belongs to the context, grows by
// doubling and is kept across calls (FootprintBytes counts it), so a warm
// context freezes a map no larger than one it froze before without
// allocating.
func (ctx *RenderContext) Freeze(c *gauss.Cloud) *gauss.Cloud {
	g := ctx.frozen.Gaussians[:0]
	if cap(g) < c.Len() {
		g = make([]gauss.Gaussian, 0, max(c.Len(), 2*cap(g)))
	}
	ctx.frozen.Gaussians = append(g, c.Gaussians...)
	return &ctx.frozen
}
