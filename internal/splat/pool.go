package splat

import (
	"sync"
	"unsafe"

	"ags/internal/gauss"
	"ags/internal/vecmath"
)

// PoolStats is a snapshot of a ContextPool's counters.
type PoolStats struct {
	// Capacity is the configured bound on retained idle contexts.
	Capacity int
	// Idle is how many contexts the pool currently retains (always <= Capacity).
	Idle int
	// Hits counts Acquire calls served by a retained context; Misses counts
	// Acquire calls that allocated a fresh context.
	Hits, Misses uint64
	// Evictions counts contexts dropped to keep Idle within Capacity.
	Evictions uint64
	// ResidentBytes estimates the heap bytes held by the retained idle
	// contexts (see RenderContext.FootprintBytes). In-use contexts are the
	// borrower's to account for.
	ResidentBytes int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before the first Acquire.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// pooledCtx is one retained idle context with its accounting.
type pooledCtx struct {
	ctx   *RenderContext
	bytes int64
}

// ContextPool is a bounded stack of RenderContexts shared by many streams:
// the per-host resource a multi-session SLAM server pins render state in
// without unbounded memory growth. Acquire never blocks — a miss allocates a
// fresh context — and returns the most recently released context (warmest
// caches first); Release retains at most Capacity idle contexts, evicting
// the oldest one beyond that. Any context serves any frame size.
//
// A ContextPool is safe for concurrent use; the contexts it hands out are
// not — each borrower owns its context exclusively until Release. Contexts
// carry no state between borrowers that affects outputs (every buffer is
// re-zeroed or fully overwritten per call), so pooled and fresh contexts are
// byte-identical to render through.
type ContextPool struct {
	mu        sync.Mutex
	capacity  int
	idle      []pooledCtx // LIFO stack, oldest at [0]
	hits      uint64
	misses    uint64
	evictions uint64
	resident  int64
}

// NewContextPool returns a pool retaining at most capacity idle contexts
// (minimum 1).
func NewContextPool(capacity int) *ContextPool {
	if capacity < 1 {
		capacity = 1
	}
	return &ContextPool{capacity: capacity}
}

// Acquire returns the most recently released idle context (hit), or a fresh
// one when none is idle (miss). The caller owns the context exclusively until
// Release.
func (p *ContextPool) Acquire() *RenderContext {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		e := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.hits++
		p.resident -= e.bytes
		p.mu.Unlock()
		return e.ctx
	}
	p.misses++
	p.mu.Unlock()
	return NewRenderContext()
}

// Release returns a context to the pool. If the pool is then over capacity,
// the oldest idle context is evicted and left to the garbage collector.
// Results and gradients previously returned by ctx are invalidated: the next
// borrower will overwrite them. A nil ctx is a no-op.
func (p *ContextPool) Release(ctx *RenderContext) {
	if p == nil || ctx == nil {
		return
	}
	bytes := ctx.FootprintBytes()
	p.mu.Lock()
	p.idle = append(p.idle, pooledCtx{ctx: ctx, bytes: bytes})
	p.resident += bytes
	if len(p.idle) > p.capacity {
		p.resident -= p.idle[0].bytes
		p.idle = append(p.idle[:0], p.idle[1:]...)
		p.evictions++
	}
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's counters.
func (p *ContextPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Capacity:      p.capacity,
		Idle:          len(p.idle),
		Hits:          p.hits,
		Misses:        p.misses,
		Evictions:     p.evictions,
		ResidentBytes: p.resident,
	}
}

// FootprintBytes estimates the heap bytes retained by the context's buffers
// (slice capacities times element sizes; the fixed-size struct header is not
// counted). The pool uses it for its resident-bytes metric.
func (ctx *RenderContext) FootprintBytes() int64 {
	if ctx == nil {
		return 0
	}
	b := sliceBytes[Splat](cap(ctx.splats)) +
		sliceBytes[int32](cap(ctx.tiles.Offsets)) +
		sliceBytes[int32](cap(ctx.tiles.Entries)) +
		sliceBytes[int32](cap(ctx.tileCursor)) +
		sliceBytes[depthKey](cap(ctx.depthKeys)) +
		sliceBytes[int32](cap(ctx.chunkKept)) +
		sliceBytes[vecmath.Vec3](cap(ctx.color.Pix)) +
		sliceBytes[float64](cap(ctx.depth.D)) +
		sliceBytes[float64](cap(ctx.result.Silhouette)) +
		sliceBytes[int32](cap(ctx.result.PerPixelBlend)) +
		sliceBytes[int32](cap(ctx.result.PerPixelAlpha)) +
		sliceBytes[int32](cap(ctx.nonContrib)) +
		sliceBytes[int32](cap(ctx.touched)) +
		sliceBytes[float64](cap(ctx.arena.lossByTile)) +
		sliceBytes[vecmath.Twist](cap(ctx.arena.poseByTile)) +
		sliceBytes[vecmath.Vec3](cap(ctx.arena.mean)) +
		sliceBytes[vecmath.Vec3](cap(ctx.arena.color)) +
		sliceBytes[float64](cap(ctx.arena.logit)) +
		sliceBytes[float64](cap(ctx.arena.logScale)) +
		sliceBytes[vecmath.Vec3](cap(ctx.gMean)) +
		sliceBytes[vecmath.Vec3](cap(ctx.gColor)) +
		sliceBytes[float64](cap(ctx.gLogit)) +
		sliceBytes[float64](cap(ctx.gLogScale)) +
		sliceBytes[gauss.Gaussian](cap(ctx.frozen.Gaussians))
	for i := range ctx.slots {
		b += ctx.slots[i].bytes()
	}
	return b
}

// bytes is the heap bytes a participant's scratch retains.
func (sl *slot) bytes() int64 {
	return sliceBytes[cullEntry](cap(sl.cull.ent)) + sliceBytes[rowSpan](cap(sl.cull.row)) +
		sliceBytes[blendStep](cap(sl.steps))
}

// sliceBytes returns the heap bytes of a slice with capacity n of T.
func sliceBytes[T any](n int) int64 {
	var t T
	return int64(n) * int64(unsafe.Sizeof(t))
}
