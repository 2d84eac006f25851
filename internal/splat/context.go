package splat

import (
	"slices"
	"sync"

	"ags/internal/frame"
)

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

// Reset drops every internal buffer, returning the context to its zero
// footprint. Results and gradients previously returned by this context are
// invalidated. Reset is never required for correctness — buffers re-size
// automatically — it only releases memory early.
func (ctx *RenderContext) Reset() {
	ctx.splats = nil
	ctx.tiles = Tiles{}
	ctx.tileCursor = nil
	ctx.color = frame.Image{}
	ctx.depth = frame.DepthMap{}
	ctx.result = Result{}
	ctx.ranges = nil
	ctx.ops = nil
	ctx.contrib = nil
	ctx.cull = nil
	ctx.arena.reset()
	ctx.grads = Grads{}
	ctx.bwScratch = nil
}

// contextPool recycles the scratch contexts behind the one-shot Render and
// Backward wrappers. Outputs are detached before a context is pooled, so
// pooled contexts never alias caller-visible buffers.
var contextPool = sync.Pool{New: func() any { return NewRenderContext() }}

// acquireContext returns a scratch context for a one-shot call. noPool
// (Options.NoPool / BackwardOptions.NoPool) bypasses the pool and allocates
// fresh — the escape hatch perf experiments use for apples-to-apples
// allocation A/Bs.
func acquireContext(noPool bool) *RenderContext {
	if noPool {
		return NewRenderContext()
	}
	return contextPool.Get().(*RenderContext)
}

// releaseContext returns a scratch context to the pool (a no-op under
// noPool, matching acquireContext).
func releaseContext(ctx *RenderContext, noPool bool) {
	if !noPool {
		contextPool.Put(ctx)
	}
}

// detachResult hands the context's forward output to the caller: the
// returned Result owns its buffers outright, and the context forgets them so
// its next use re-allocates instead of aliasing. Internal scratch that never
// escapes (shard ranges, op counters, contribution scratch, the CSR build
// cursor, the cull scratch, the backward arena) stays with the context for
// reuse. So does the blend log: it is grown by reservation and doubling, so
// the Result takes an exact-size copy and a pooled context keeps the settled
// buffers instead of regrowing them on every one-shot call.
func (ctx *RenderContext) detachResult() *Result {
	out := ctx.result
	logShards, logTiles := out.logShards, out.logTiles
	out.logTiles = slices.Clone(logTiles)
	out.logShards = make([]blendShard, len(logShards))
	for i, sh := range logShards {
		out.logShards[i] = blendShard{li: slices.Clone(sh.li), g: slices.Clone(sh.g)}
	}
	out.Color = &frame.Image{W: ctx.color.W, H: ctx.color.H, Pix: ctx.color.Pix}
	out.Depth = &frame.DepthMap{W: ctx.depth.W, H: ctx.depth.H, D: ctx.depth.D}
	out.Tiles = &Tiles{TW: ctx.tiles.TW, TH: ctx.tiles.TH, Offsets: ctx.tiles.Offsets, Entries: ctx.tiles.Entries}
	ctx.color = frame.Image{}
	ctx.depth = frame.DepthMap{}
	ctx.tiles = Tiles{}
	ctx.splats = nil
	ctx.result = Result{logShards: logShards, logTiles: logTiles}
	return &out
}

// detachGrads hands the context's backward output to the caller, forgetting
// the gradient buffers so the next use re-allocates instead of aliasing.
func (ctx *RenderContext) detachGrads() *Grads {
	out := ctx.grads
	ctx.grads = Grads{}
	return &out
}
