package splat

import (
	"math/rand"
	"sync"
	"testing"
)

// useContext runs one render through ctx so its buffers are sized for a
// w x h frame (giving it a non-trivial footprint and a size class).
func useContext(t *testing.T, ctx *RenderContext, w, h int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(w*1000 + h)))
	cloud := randomCloud(rng, 9)
	ctx.Render(cloud, testCam(w, h), Options{Workers: 1})
}

func TestContextPoolHitMissAccounting(t *testing.T) {
	p := NewContextPool(4)
	a := p.Acquire(64, 48) // empty pool: miss
	useContext(t, a, 64, 48)
	p.Release(a)
	if got := p.Acquire(64, 48); got != a { // same size class: hit, same context
		t.Error("acquire of released size class returned a different context")
	}
	if p.Acquire(32, 24) == nil { // different class: miss, fresh context
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
		ctxs[i] = p.Acquire(sz.w, sz.h)
		useContext(t, ctxs[i], sz.w, sz.h)
	}
	// Release in order: the third release exceeds capacity and must evict the
	// least-recently-used idle context — the first released (64x48).
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
	if st.ResidentBytes <= 0 {
		t.Errorf("resident bytes %d, want > 0 with retained contexts", st.ResidentBytes)
	}
	preMisses := st.Misses
	if p.Acquire(64, 48) == ctxs[0] {
		t.Error("evicted context came back from the pool")
	}
	if got := p.Stats().Misses; got != preMisses+1 {
		t.Errorf("acquire of evicted class: misses=%d, want %d", got, preMisses+1)
	}
	// The two younger classes survived.
	if p.Acquire(32, 24) != ctxs[1] || p.Acquire(48, 36) != ctxs[2] {
		t.Error("surviving size classes did not return their contexts")
	}
	if st := p.Stats(); st.Idle != 0 || st.ResidentBytes != 0 {
		t.Errorf("drained pool: idle=%d resident=%d, want 0/0", st.Idle, st.ResidentBytes)
	}
}

func TestContextPoolClassStacksAreLIFO(t *testing.T) {
	p := NewContextPool(4)
	a := p.Acquire(64, 48)
	b := p.Acquire(64, 48)
	useContext(t, a, 64, 48)
	useContext(t, b, 64, 48)
	p.Release(a)
	p.Release(b)
	// Within a class the most recently released (warmest) comes back first.
	if p.Acquire(64, 48) != b || p.Acquire(64, 48) != a {
		t.Error("class stack is not LIFO")
	}
}

// TestContextPoolConcurrentAcquire exercises the pool from N goroutines under
// -race: mixed size classes, live renders through the acquired contexts, and
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
		ref[i] = Render(cloud, testCam(sz.w, sz.h), Options{Workers: 1}).Digest()
	}
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (wi + it) % len(sizes)
				ctx := p.Acquire(sizes[i].w, sizes[i].h)
				res := ctx.Render(cloud, testCam(sizes[i].w, sizes[i].h), Options{Workers: 1})
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

	ctx := p.Acquire(96, 64)
	ctx.Render(cloud, testCam(96, 64), Options{Workers: 2, LogContribution: true})
	p.Release(ctx)

	// Acquire for a different class: miss, then release the dirty context's
	// class and re-acquire it for a new stream.
	got := p.Acquire(96, 64)
	if got != ctx {
		t.Fatal("expected the pooled context back")
	}
	opts := Options{Workers: 1}
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
	res := ctx.Render(cloud, testCam(64, 48), Options{Workers: 1})
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
	if p.Acquire(64, 48) != ctx {
		t.Fatal("pool did not hand the context back")
	}
	// The blend log (12 B per blend) and the cull scratch are counted:
	// dropping them lowers the footprint by exactly their bytes.
	var logBytes, cullBytes int64
	for i, sh := range ctx.result.logShards {
		logBytes += int64(4*cap(sh.li) + 8*cap(sh.g))
		ctx.result.logShards[i] = blendShard{}
	}
	if logBytes < 12*res.BlendOps || res.BlendOps == 0 {
		t.Errorf("blend log holds %d bytes for %d blends", logBytes, res.BlendOps)
	}
	if got := used - ctx.FootprintBytes(); got != logBytes {
		t.Errorf("dropping the blend log freed %d footprint bytes, log held %d", got, logBytes)
	}
	for i, sc := range ctx.cull {
		cullBytes += sliceBytes[cullEntry](cap(sc.ent)) + sliceBytes[rowSpan](cap(sc.row))
		ctx.cull[i] = tileScratch{}
	}
	if got := used - logBytes - ctx.FootprintBytes(); got != cullBytes || cullBytes == 0 {
		t.Errorf("dropping the cull scratch freed %d footprint bytes, scratch held %d", got, cullBytes)
	}
	if got := NewRenderContext().FootprintBytes(); got != 0 {
		t.Errorf("fresh context footprint %d, want 0", got)
	}
	if (*RenderContext)(nil).FootprintBytes() != 0 {
		t.Error("nil context footprint not 0")
	}
}

// TestContextPoolEvictionOrderIsMapOrderIndependent backs the
// //ags:allow(maprange) on evictLRULocked: the eviction scan ranges over the
// idle-class map, which is only sound because it is a min-reduction over
// globally unique release sequence numbers. Rebuild the same overflow
// situation many times — different runs randomize Go's map iteration order —
// and require the identical eviction sequence every time.
func TestContextPoolEvictionOrderIsMapOrderIndependent(t *testing.T) {
	sizes := []struct{ w, h int }{{64, 48}, {32, 24}, {48, 36}, {16, 12}, {80, 60}}
	survivors := func() [2][2]int {
		p := NewContextPool(2)
		ctxs := make([]*RenderContext, len(sizes))
		for i, sz := range sizes {
			ctxs[i] = p.Acquire(sz.w, sz.h)
			useContext(t, ctxs[i], sz.w, sz.h)
		}
		for _, ctx := range ctxs {
			p.Release(ctx) // three of these five releases must evict, oldest-first
		}
		if got := p.Stats().Evictions; got != 3 {
			t.Fatalf("evictions=%d, want 3", got)
		}
		// LRU means exactly the two most recently released classes survive.
		var out [2][2]int
		for i, sz := range sizes[len(sizes)-2:] {
			if p.Acquire(sz.w, sz.h) == ctxs[len(sizes)-2+i] {
				out[i] = [2]int{sz.w, sz.h}
			}
		}
		return out
	}
	want := survivors()
	for run := 1; run < 20; run++ {
		if got := survivors(); got != want {
			t.Fatalf("run %d evicted differently: survivors %v, want %v", run, got, want)
		}
	}
}
