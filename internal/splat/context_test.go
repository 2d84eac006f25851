package splat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ags/internal/frame"
	"ags/internal/hw/trace"
	"ags/internal/vecmath"
)

// TestRenderContextAllocationFree pins the point of the tentpole: once a
// context is warm, the serial render and backward hot path allocates nothing.
// The budget is deliberately tiny and fixed — any regression (a buffer that
// stopped being reused, a closure that started escaping) fails loudly.
func TestRenderContextAllocationFree(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	opts := Options{Workers: 1, LogContribution: true}
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: 1}

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

	// The pipeline's own sequence on one context: a tracking iteration (an
	// unlogged sparse render, a pose-only backward) then a mapping one (a
	// logged dense render, a Gaussian backward). Passes that leave the
	// contribution log and the Gaussian gradients out must keep their
	// storage, or every cycle re-makes six buffers.
	track := Options{Workers: 1, Sparse: true}
	trackB := BackwardOptions{PoseGrads: true, Workers: 1}
	mapB := BackwardOptions{GaussianGrads: true, Workers: 1}
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
}

// TestPackDetailAllocBudget: recording a render as a trace's representative
// iteration makes one allocation per packed sequence (two planes, and the
// tile lists' IDs and offsets), none for an intermediate list, and what it
// records reads back as the render's own planes and tables.
func TestPackDetailAllocBudget(t *testing.T) {
	cloud, cam := determinismScene()
	ctx := NewRenderContext()
	res := ctx.Render(cloud, cam, Options{Workers: 1})
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
		opts := Options{Workers: 1 + i%3, LogContribution: i%2 == 0}
		bopts := BackwardOptions{GaussianGrads: i%2 == 0, PoseGrads: i%2 == 1, Workers: 1 + i%3}

		res := ctx.Render(cloud, cam, opts)
		gotRes := res.Digest()

		ref := Render(cloud, cam, opts)
		if gotRes != ref.Digest() {
			t.Fatalf("render %d (%dx%d): contexted digest diverged from fresh one-shot", i, cam.Intr.W, cam.Intr.H)
		}

		target := &frame.Frame{Color: ref.Color, Depth: ref.NormalizedDepth()}
		gotG := ctx.Backward(cloud, cam, res, target, lc, bopts).Digest()
		wantG := Backward(cloud, cam, ref, target, lc, bopts).Digest()
		if gotG != wantG {
			t.Fatalf("backward %d (%dx%d): contexted digest diverged from fresh one-shot", i, cam.Intr.W, cam.Intr.H)
		}
	}
}

// TestRenderContextDeterminismAcrossWorkerCounts mirrors the one-shot
// determinism suite for the contexted path: one warm context must reproduce
// the serial one-shot reference bit for bit at every worker count.
func TestRenderContextDeterminismAcrossWorkerCounts(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	opts := Options{Workers: 1, LogContribution: true}
	ref := Render(cloud, cam, opts)
	refG := Backward(cloud, cam, ref, target, lc, BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: 1})
	wantRes, wantG := ref.Digest(), refG.Digest()

	ctx := NewRenderContext()
	for _, wkr := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", wkr), func(t *testing.T) {
			o := opts
			o.Workers = wkr
			res := ctx.Render(cloud, cam, o)
			if res.Digest() != wantRes {
				t.Errorf("contexted render digest differs from one-shot Workers=1 reference")
			}
			g := ctx.Backward(cloud, cam, res, target, lc,
				BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: wkr})
			if g.Digest() != wantG {
				t.Errorf("contexted backward digest differs from one-shot Workers=1 reference")
			}
		})
	}
}
