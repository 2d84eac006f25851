package splat

import (
	"fmt"
	"math/rand"
	"testing"

	"ags/internal/frame"
)

// TestRenderContextAllocationFree pins the point of the tentpole: once a
// context is warm, the serial render and backward hot path allocates nothing.
// The budget is deliberately tiny and fixed — any regression (a buffer that
// stopped being reused, a closure that started escaping) fails loudly.
func TestRenderContextAllocationFree(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	opts := Options{Workers: 1, LogContribution: true, ThreshAlpha: 1.0 / 255}
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
		opts := Options{Workers: 1 + i%3}
		if i%2 == 0 {
			opts.LogContribution = true
			opts.ThreshAlpha = 1.0 / 255
		}
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
	opts := Options{Workers: 1, LogContribution: true, ThreshAlpha: 1.0 / 255}
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
