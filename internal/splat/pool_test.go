package splat

import (
	"math/rand"
	"sync"
	"testing"
)

// useContext runs one render through ctx so its buffers are sized for a
// w x h frame (giving it a non-trivial footprint).
func useContext(t *testing.T, ctx *RenderContext, w, h int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(w*1000 + h)))
	cloud := randomCloud(rng, 9)
	ctx.Render(cloud, testCam(w, h), Options{})
}

func TestContextPoolHitMissAccounting(t *testing.T) {
	p := NewContextPool(4)
	a := p.Acquire() // empty pool: miss
	useContext(t, a, 64, 48)
	p.Release(a)
	if got := p.Acquire(); got != a { // hit, same context
		t.Error("acquire after a release returned a different context")
	}
	if p.Acquire() == nil { // empty again: miss, fresh context
		t.Error("miss returned nil")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want 1/2", st.Hits, st.Misses)
	}
	if st.Idle != 0 {
		t.Errorf("idle=%d after draining, want 0", st.Idle)
	}
	if hr := st.HitRate(); hr <= 0.33 || hr >= 0.34 {
		t.Errorf("hit rate %.3f, want 1/3", hr)
	}
}

func TestContextPoolBoundedWithLRUEviction(t *testing.T) {
	p := NewContextPool(2)
	sizes := []struct{ w, h int }{{64, 48}, {32, 24}, {48, 36}}
	ctxs := make([]*RenderContext, len(sizes))
	for i, sz := range sizes {
		ctxs[i] = p.Acquire()
		useContext(t, ctxs[i], sz.w, sz.h)
	}
	// Release in order: the third release exceeds capacity and must evict the
	// oldest idle context, the first released, whatever its frame size.
	for _, ctx := range ctxs {
		p.Release(ctx)
	}
	st := p.Stats()
	if st.Idle != 2 {
		t.Fatalf("idle=%d, want capacity 2", st.Idle)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
	if want := ctxs[1].FootprintBytes() + ctxs[2].FootprintBytes(); st.ResidentBytes != want {
		t.Errorf("resident bytes %d, want the survivors' %d", st.ResidentBytes, want)
	}
	// The two younger contexts survived, newest first; then the pool is empty.
	if p.Acquire() != ctxs[2] || p.Acquire() != ctxs[1] {
		t.Error("surviving contexts did not come back newest first")
	}
	if st := p.Stats(); st.Idle != 0 || st.ResidentBytes != 0 {
		t.Errorf("drained pool: idle=%d resident=%d, want 0/0", st.Idle, st.ResidentBytes)
	}
	preMisses := p.Stats().Misses
	if p.Acquire() == ctxs[0] {
		t.Error("evicted context came back from the pool")
	}
	if got := p.Stats().Misses; got != preMisses+1 {
		t.Errorf("acquire of an empty pool: misses=%d, want %d", got, preMisses+1)
	}
}

// TestContextPoolStackIsLIFO releases contexts last used at different frame
// sizes: the most recently released (warmest) comes back first, whatever
// size the next borrower renders at.
func TestContextPoolStackIsLIFO(t *testing.T) {
	p := NewContextPool(4)
	a := p.Acquire()
	b := p.Acquire()
	useContext(t, a, 64, 48)
	useContext(t, b, 32, 24)
	p.Release(a)
	p.Release(b)
	if p.Acquire() != b || p.Acquire() != a {
		t.Error("pool stack is not LIFO")
	}
}

// TestContextPoolConcurrentAcquire exercises the pool from N goroutines under
// -race: mixed frame sizes, live renders through the acquired contexts, and
// a final accounting check (every acquire was a hit or a miss, the idle set
// never exceeds capacity).
func TestContextPoolConcurrentAcquire(t *testing.T) {
	const (
		workers = 8
		iters   = 20
		capN    = 3
	)
	p := NewContextPool(capN)
	cloud, _ := determinismScene()
	sizes := []struct{ w, h int }{{64, 48}, {32, 24}, {48, 36}, {96, 64}}
	ref := make([][32]byte, len(sizes))
	for i, sz := range sizes {
		ref[i] = Render(cloud, testCam(sz.w, sz.h), Options{}).Digest()
	}
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (wi + it) % len(sizes)
				ctx := p.Acquire()
				res := ctx.Render(cloud, testCam(sizes[i].w, sizes[i].h), Options{})
				if res.Digest() != ref[i] {
					t.Errorf("worker %d iter %d: pooled context render diverged", wi, it)
				}
				p.Release(ctx)
			}
		}(wi)
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Errorf("hits+misses = %d, want %d acquires", st.Hits+st.Misses, workers*iters)
	}
	if st.Idle > capN {
		t.Errorf("idle=%d exceeds capacity %d", st.Idle, capN)
	}
}

// TestContextPoolReuseIsContentIndependent re-acquires a context that was
// last used at a different size and by different options, and asserts its
// output is bitwise identical to a fresh one-shot render — the property that
// lets sessions of different streams share one pool.
func TestContextPoolReuseIsContentIndependent(t *testing.T) {
	p := NewContextPool(2)
	cloud, _ := determinismScene()

	ctx := p.Acquire()
	ctx.Render(cloud, testCam(96, 64), Options{LogContribution: true})
	p.Release(ctx)

	// Re-acquire the dirty context for a new stream at another size.
	got := p.Acquire()
	if got != ctx {
		t.Fatal("expected the pooled context back")
	}
	opts := Options{}
	res := got.Render(cloud, testCam(48, 36), opts)
	if want := Render(cloud, testCam(48, 36), opts); res.Digest() != want.Digest() {
		t.Error("re-acquired context output diverged from a fresh render")
	}
}

func TestFootprintBytes(t *testing.T) {
	ctx := NewRenderContext()
	if got := ctx.FootprintBytes(); got != 0 {
		t.Errorf("fresh context footprint %d, want 0", got)
	}
	cloud, _ := determinismScene()
	res := ctx.Render(cloud, testCam(64, 48), Options{})
	used := ctx.FootprintBytes()
	// At least the four pixel planes must be resident.
	if min := int64(64 * 48 * (24 + 8 + 8 + 8)); used < min {
		t.Errorf("used context footprint %d, want >= %d", used, min)
	}
	// What the pool reports resident is that footprint.
	p := NewContextPool(1)
	p.Release(ctx)
	if got := p.Stats().ResidentBytes; got != used {
		t.Errorf("pool resident bytes %d, context footprint %d", got, used)
	}
	if p.Acquire() != ctx {
		t.Fatal("pool did not hand the context back")
	}
	// The participants' scratch slots (cull scratch, blend steps) are
	// counted: dropping them lowers the footprint by exactly their bytes.
	if cap(ctx.slots[callerSlot].steps) == 0 || ctx.slots[callerSlot].cull.ent == nil {
		t.Fatal("the render left its caller's slot without blend steps or cull scratch")
	}
	var slotBytes int64
	for i := range ctx.slots {
		slotBytes += ctx.slots[i].bytes()
		ctx.slots[i] = slot{}
	}
	if got := used - ctx.FootprintBytes(); got != slotBytes {
		t.Errorf("dropping the scratch slots freed %d footprint bytes, they held %d", got, slotBytes)
	}
	// So are the table build's depth keys with the radix sort's other buffer
	// (the keys' second half) and the projection's per-chunk counts.
	orderBytes := sliceBytes[depthKey](cap(ctx.depthKeys)) + sliceBytes[int32](cap(ctx.chunkKept))
	if len(ctx.depthKeys) == 0 || len(ctx.chunkKept) != ceilDiv(cloud.Len(), ChunkSize) {
		t.Fatalf("render left %d depth keys and %d chunk counts for %d splats of %d Gaussians",
			len(ctx.depthKeys), len(ctx.chunkKept), len(res.Splats), cloud.Len())
	}
	if cap(ctx.depthKeys) < 2*len(res.Splats) {
		t.Fatalf("the depth keys' scratch holds %d keys, want room for %d and the radix sort's %d", cap(ctx.depthKeys), len(res.Splats), len(res.Splats))
	}
	ctx.depthKeys, ctx.chunkKept = nil, nil
	if got := used - slotBytes - ctx.FootprintBytes(); got != orderBytes {
		t.Errorf("dropping the depth keys and chunk counts freed %d footprint bytes, they held %d", got, orderBytes)
	}
	if got := NewRenderContext().FootprintBytes(); got != 0 {
		t.Errorf("fresh context footprint %d, want 0", got)
	}
	if (*RenderContext)(nil).FootprintBytes() != 0 {
		t.Error("nil context footprint not 0")
	}
}
