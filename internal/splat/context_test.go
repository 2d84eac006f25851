package splat

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/vecmath"
)

// TestRenderContextAllocationFree pins the point of the tentpole: once a
// context is warm, the serial render, backward and train hot path allocates
// nothing, and neither does a pass a crew's helper joined. The budget is deliberately
// tiny and fixed — any regression (a buffer that stopped being reused, a
// closure that started escaping, a pass that describes itself on the heap)
// fails loudly.
func TestRenderContextAllocationFree(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	opts := Options{LogContribution: true}
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true}

	ctx := NewRenderContext()
	res := ctx.Render(cloud, cam, opts)
	ctx.Backward(cloud, cam, res, target, lc, bopts)

	const budget = 1.0 // allocs/op; steady state measures 0
	if allocs := testing.AllocsPerRun(20, func() {
		res = ctx.Render(cloud, cam, opts)
	}); allocs > budget {
		t.Errorf("warm contexted render: %.1f allocs/op, budget %.0f", allocs, budget)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ctx.Backward(cloud, cam, res, target, lc, bopts)
	}); allocs > budget {
		t.Errorf("warm contexted backward: %.1f allocs/op, budget %.0f", allocs, budget)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ctx.Train(cloud, cam, opts, target, lc, bopts)
	}); allocs != 0 {
		t.Errorf("warm contexted train: %.1f allocs/op, want 0", allocs)
	}

	// The pipeline's own sequence on one context: a tracking iteration (an
	// unlogged sparse render, a pose-only backward) then a mapping one (a
	// logged dense render, a Gaussian backward). Passes that leave the
	// contribution log and the Gaussian gradients out must keep their
	// storage, or every cycle re-makes six buffers.
	track := Options{Sparse: true}
	trackB := BackwardOptions{PoseGrads: true}
	mapB := BackwardOptions{GaussianGrads: true}
	if allocs := testing.AllocsPerRun(20, func() {
		g := ctx.Backward(cloud, cam, ctx.Render(cloud, cam, track), target, DefaultTrackingLoss(), trackB)
		if g.Mean != nil || ctx.result.NonContrib != nil {
			t.Fatal("a pass exposed a buffer it did not compute")
		}
		ctx.Backward(cloud, cam, ctx.Render(cloud, cam, opts), target, lc, mapB)
	}); allocs != 0 {
		t.Errorf("warm tracking/mapping cycle: %.1f allocs/op, want 0", allocs)
	}

	// What a context keeps across those passes (8 B of contribution log and
	// 64 B of gradients per Gaussian) is counted in its footprint, which the
	// pool reports resident.
	kept := sliceBytes[int32](cap(ctx.nonContrib)+cap(ctx.touched)) +
		sliceBytes[vecmath.Vec3](cap(ctx.gMean)+cap(ctx.gColor)) +
		sliceBytes[float64](cap(ctx.gLogit)+cap(ctx.gLogScale))
	if want := int64(cloud.Len()) * (2*4 + 2*24 + 2*8); kept < want {
		t.Errorf("the context keeps %d bytes of contribution log and gradients, want >= %d", kept, want)
	}
	before := ctx.FootprintBytes()
	ctx.nonContrib, ctx.touched, ctx.gMean, ctx.gColor, ctx.gLogit, ctx.gLogScale = nil, nil, nil, nil, nil, nil
	if freed := before - ctx.FootprintBytes(); freed != kept {
		t.Errorf("dropping the contribution log and gradients freed %d footprint bytes, they held %d", freed, kept)
	}

	// Passes a helper joins. testing.AllocsPerRun runs at GOMAXPROCS 1,
	// where the helper would hardly ever get a tile, so the mallocs are
	// counted around the loop directly; as there, the count per cycle is an
	// integer division, so a buffer that grows once in the loop does not
	// count and one re-made every cycle does.
	stop := spinHelper(ctx)
	defer stop()
	cycle := func() (helped int) {
		res := ctx.Render(cloud, cam, opts)
		helped = ctx.slots[helperSlot].tiles
		ctx.Backward(cloud, cam, res, target, lc, bopts)
		return helped + ctx.slots[helperSlot].tiles
	}
	for range 50 {
		cycle()
	}
	const runs = 50
	var m0, m1 runtime.MemStats
	helped := 0
	runtime.ReadMemStats(&m0)
	for range runs {
		helped += cycle()
	}
	runtime.ReadMemStats(&m1)
	if allocs := (m1.Mallocs - m0.Mallocs) / runs; allocs != 0 {
		t.Errorf("warm helped render/backward cycle: %d allocs/op, want 0", allocs)
	}
	if helped == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Error("the helper took no tile of the measured passes")
	}
	// The helper's slot is the context's, and its footprint counts it.
	stop()
	if held := ctx.slots[helperSlot].bytes(); held > 0 {
		full := ctx.FootprintBytes()
		ctx.slots[helperSlot] = slot{}
		if freed := full - ctx.FootprintBytes(); freed != held {
			t.Errorf("dropping the helper's slot freed %d footprint bytes, it held %d", freed, held)
		}
	}
}

// TestPackDetailAllocBudget: recording a render as a trace's representative
// iteration makes one allocation per packed sequence (two planes, and the
// tile lists' IDs and offsets), none for an intermediate list, and what it
// records reads back as the render's own planes and tables.
func TestPackDetailAllocBudget(t *testing.T) {
	cloud, cam := determinismScene()
	ctx := NewRenderContext()
	res := ctx.Render(cloud, cam, Options{})
	var s trace.RenderStats
	for _, tc := range []struct {
		lists  bool
		budget float64
	}{{false, 2}, {true, 4}} {
		if allocs := testing.AllocsPerRun(20, func() { res.PackDetail(&s, tc.lists) }); allocs > tc.budget {
			t.Errorf("PackDetail(lists %v): %.1f allocs/op, budget %.0f", tc.lists, allocs, tc.budget)
		}
	}
	if !slices.Equal(s.RepPerPixelBlend.AppendTo(nil), res.PerPixelBlend) || !slices.Equal(s.RepPerPixelAlpha.AppendTo(nil), res.PerPixelAlpha) ||
		s.Width != cam.Intr.W || s.Height != cam.Intr.H {
		t.Error("the packed planes do not read back as the render's")
	}
	if l := s.RepTileLists; !slices.Equal(l.Offsets.AppendTo(nil), res.Tiles.Offsets) || l.IDs.Len() != res.Tiles.TotalEntries() {
		t.Error("the packed tile lists are not the render's tables")
	}
}

// TestRenderContextMixedSizeReuse drives one context through 50 renders of
// mixed frame sizes and clouds, asserting every output (and its backward
// gradients) is bitwise identical to a fresh one-shot call — i.e.
// context reuse never leaks state between frames, including across buffer
// shrinks and regrowths.
func TestRenderContextMixedSizeReuse(t *testing.T) {
	big, _ := determinismScene()
	cams := []struct{ w, h int }{{96, 64}, {32, 32}, {144, 96}, {48, 24}, {64, 48}}
	rng := rand.New(rand.NewSource(11))
	small := randomCloud(rng, 7)
	lc := DefaultMappingLoss()

	ctx := NewRenderContext()
	for i := 0; i < 50; i++ {
		cam := testCam(cams[i%len(cams)].w, cams[i%len(cams)].h)
		cloud := big
		if i%3 == 1 {
			cloud = small
		}
		opts := Options{LogContribution: i%2 == 0}
		bopts := BackwardOptions{GaussianGrads: i%2 == 0, PoseGrads: i%2 == 1}

		res := ctx.Render(cloud, cam, opts)
		gotRes := res.Digest()

		ref := Render(cloud, cam, opts)
		if gotRes != ref.Digest() {
			t.Fatalf("render %d (%dx%d): contexted digest diverged from fresh one-shot", i, cam.Intr.W, cam.Intr.H)
		}

		target := &frame.Frame{Color: ref.Color, Depth: ref.NormalizedDepth()}
		gotG := ctx.Backward(cloud, cam, res, target, lc, bopts).Digest()
		wantG := NewRenderContext().Backward(cloud, cam, ref, target, lc, bopts).Digest()
		if gotG != wantG {
			t.Fatalf("backward %d (%dx%d): contexted digest diverged from fresh one-shot", i, cam.Intr.W, cam.Intr.H)
		}
	}
}

// TestRenderContextDeterminismAcrossWorkerCounts mirrors the one-shot
// determinism suite for the contexted path: a warm context, with and without
// a helper, must reproduce the one-shot reference bit for bit at every
// GOMAXPROCS.
func TestRenderContextDeterminismAcrossWorkerCounts(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	opts := Options{LogContribution: true}
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true}
	ref := Render(cloud, cam, opts)
	refG := NewRenderContext().Backward(cloud, cam, ref, target, lc, bopts)
	wantRes, wantG := ref.Digest(), refG.Digest()

	ways, stop := twoWays()
	defer stop()
	for _, procs := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			defer withProcs(procs)()
			for _, w := range ways {
				res := w.ctx.Render(cloud, cam, opts)
				if res.Digest() != wantRes {
					t.Errorf("%s: contexted render digest differs from the one-shot reference", w.name)
				}
				if g := w.ctx.Backward(cloud, cam, res, target, lc, bopts); g.Digest() != wantG {
					t.Errorf("%s: contexted backward digest differs from the one-shot reference", w.name)
				}
			}
		})
	}
}

// TestFreezeCopiesAndStaysWarm: Freeze returns a copy that renders exactly
// as its source did and stays as it was while the source changes; a warm
// context freezes a map no larger than one it froze before without
// allocating, grows by doubling when the map outgrows it, and counts the
// copy in its footprint.
func TestFreezeCopiesAndStaysWarm(t *testing.T) {
	cloud, cam := determinismScene()
	ctx := NewRenderContext()
	frozen := ctx.Freeze(cloud)
	want := Render(cloud, cam, Options{}).Digest()
	for i := range cloud.Gaussians {
		cloud.Gaussians[i].Logit += 0.5
	}
	cloud.Add(cloud.Gaussians[0])
	if frozen.Len() != cloud.Len()-1 {
		t.Fatalf("the copy holds %d Gaussians, the source held %d", frozen.Len(), cloud.Len()-1)
	}
	if got := ctx.Render(frozen, cam, Options{}).Digest(); got != want {
		t.Error("the frozen copy renders differently from the map it was taken of")
	}
	if allocs := testing.AllocsPerRun(10, func() { ctx.Freeze(frozen) }); allocs != 0 {
		t.Errorf("a warm freeze of a map no larger allocates %.0f times", allocs)
	}
	before, held := ctx.FootprintBytes(), cap(ctx.frozen.Gaussians)
	ctx.Freeze(cloud) // one Gaussian more than the copy had room for
	if got := cap(ctx.frozen.Gaussians); got != max(cloud.Len(), 2*held) {
		t.Errorf("the copy grew from %d to %d slots for %d Gaussians, want doubled", held, got, cloud.Len())
	}
	if grew := ctx.FootprintBytes() - before; grew != sliceBytes[gauss.Gaussian](cap(ctx.frozen.Gaussians)-held) {
		t.Errorf("the footprint grew %d bytes with the copy's storage", grew)
	}
}
