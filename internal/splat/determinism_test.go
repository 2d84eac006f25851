package splat

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/vecmath"
)

// workerCounts is the table of GOMAXPROCS values the determinism suite
// sweeps, naming its subtests workers=N: one processor, on which a pass's
// caller and its helper take turns only where the scheduler preempts them, a
// couple of counts above the two participants, a count that rarely divides
// the tile grid, and whatever the host actually has.
func workerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
}

// withProcs sets GOMAXPROCS to procs and returns what restores it.
func withProcs(procs int) (restore func()) {
	old := runtime.GOMAXPROCS(procs)
	return func() { runtime.GOMAXPROCS(old) }
}

// way is one way a context's passes run: on their caller alone, or shared
// with a helper.
type way struct {
	name string
	ctx  *RenderContext
}

// twoWays returns a context whose passes run on their caller alone and one
// whose passes a spinHelper races the caller for; stop detaches the helper.
func twoWays() (ways [2]way, stop func()) {
	helped := NewRenderContext()
	stop = spinHelper(helped)
	return [2]way{{"plain", NewRenderContext()}, {"helped", helped}}, stop
}

// determinismScene spreads Gaussians across the whole tile grid with heavy
// overlap so every cross-tile reduction (contribution log, op counters,
// shared-Gaussian gradients) is exercised.
func determinismScene() (*gauss.Cloud, camera.Camera) {
	cam := testCam(96, 64) // 6x4 tile grid
	cloud := gauss.NewCloud(60)
	for i := 0; i < 60; i++ {
		fi := float64(i)
		g := gauss.Gaussian{
			Mean: vecmath.Vec3{
				X: 0.7 * math.Sin(fi*0.7),
				Y: 0.5 * math.Cos(fi*1.1),
				Z: 1.2 + 0.05*fi,
			},
			Color: vecmath.Vec3{X: 0.2 + 0.6*math.Abs(math.Sin(fi)), Y: 0.4, Z: 0.2 + fi/120},
		}
		g.SetScale(0.08 + 0.01*math.Mod(fi, 7))
		g.SetOpacity(0.15 + 0.7*math.Abs(math.Cos(fi*0.9)))
		cloud.Add(g)
	}
	return cloud, cam
}

// determinismTarget renders a perturbed copy of the scene so backward losses
// and gradients are non-zero.
func determinismTarget(cloud *gauss.Cloud, cam camera.Camera) *frame.Frame {
	gt := gauss.NewCloud(cloud.Len())
	for id := 0; id < cloud.Len(); id++ {
		g := *cloud.At(id)
		g.Mean.X += 0.02 * math.Sin(float64(id))
		g.Mean.Y -= 0.015 * math.Cos(float64(id)*2)
		gt.Add(g)
	}
	res := Render(gt, cam, Options{})
	return &frame.Frame{Color: res.Color, Depth: res.NormalizedDepth()}
}

// TestRenderDeterminismAcrossWorkerCounts asserts the forward contract:
// identical SHA-256 over every output buffer and identical AlphaOps/BlendOps
// with and without a helper, at every GOMAXPROCS.
func TestRenderDeterminismAcrossWorkerCounts(t *testing.T) {
	cloud, cam := determinismScene()
	opts := Options{LogContribution: true}
	ref := Render(cloud, cam, opts)
	want := ref.Digest()
	ways, stop := twoWays()
	defer stop()
	for _, procs := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			defer withProcs(procs)()
			for _, w := range ways {
				got := w.ctx.Render(cloud, cam, opts)
				if got.AlphaOps != ref.AlphaOps || got.BlendOps != ref.BlendOps {
					t.Errorf("%s: op counters differ: alpha %d/%d blend %d/%d",
						w.name, got.AlphaOps, ref.AlphaOps, got.BlendOps, ref.BlendOps)
				}
				if got.Digest() != want {
					t.Errorf("%s: render digest differs from the one-shot reference", w.name)
				}
			}
		})
	}
}

// TestBackwardDeterminismAcrossWorkerCounts asserts the backward contract:
// the full render+backward composition, with and without a helper and at
// every GOMAXPROCS, is byte-identical to the one-shot reference (gradients,
// pose twist, loss, pixel count).
func TestBackwardDeterminismAcrossWorkerCounts(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true}
	ways, stop := twoWays()
	defer stop()
	for _, lc := range []LossConfig{DefaultMappingLoss(), DefaultTrackingLoss()} {
		refRes := Render(cloud, cam, Options{})
		refG := NewRenderContext().Backward(cloud, cam, refRes, target, lc, bopts)
		wantRes, wantG := refRes.Digest(), refG.Digest()
		for _, procs := range workerCounts() {
			name := fmt.Sprintf("masked=%v/workers=%d", lc.UseSilhouetteMask, procs)
			t.Run(name, func(t *testing.T) {
				defer withProcs(procs)()
				for _, w := range ways {
					res := w.ctx.Render(cloud, cam, Options{})
					if res.Digest() != wantRes {
						t.Fatalf("%s: render digest differs from the one-shot reference", w.name)
					}
					g := w.ctx.Backward(cloud, cam, res, target, lc, bopts)
					if math.Float64bits(g.Loss) != math.Float64bits(refG.Loss) {
						t.Errorf("%s: loss not bit-identical: %v vs %v", w.name, g.Loss, refG.Loss)
					}
					if g.Digest() != wantG {
						t.Errorf("%s: gradient digest differs from the one-shot reference", w.name)
					}
				}
			})
		}
	}
}

// TestBackwardArenaDeterminism asserts the gradient-arena contract: a
// context's recycled partial buffers (including deliberately dirtied,
// size-mismatched reuses) produce gradients bitwise identical to a fresh
// one-shot call, with and without a helper, at every GOMAXPROCS and across
// repeated calls.
func TestBackwardArenaDeterminism(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{})
	ref := NewRenderContext().Backward(cloud, cam, res, target, lc,
		BackwardOptions{GaussianGrads: true, PoseGrads: true})
	want := ref.Digest()

	// A smaller companion scene dirties the arena with buffers of a different
	// tile/entry footprint between reference calls.
	smallCam := testCam(32, 32)
	smallRes := Render(cloud, smallCam, Options{})
	smallTarget := &frame.Frame{Color: smallRes.Color, Depth: smallRes.NormalizedDepth()}

	ways, stop := twoWays()
	defer stop()
	for _, procs := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			defer withProcs(procs)()
			for _, w := range ways {
				for rep := 0; rep < 4; rep++ {
					w.ctx.Backward(cloud, smallCam, smallRes, smallTarget, lc,
						BackwardOptions{GaussianGrads: true})
					g := w.ctx.Backward(cloud, cam, res, target, lc,
						BackwardOptions{GaussianGrads: true, PoseGrads: true})
					if g.Digest() != want {
						t.Fatalf("%s, rep %d: recycled-arena gradients diverged from the fresh reference", w.name, rep)
					}
				}
			}
		})
	}
}

// TestBackwardArenaReducesAllocs pins the point of the arena: repeated
// backward passes through one context allocate measurably less than one-shot
// calls, which size a fresh arena every time.
func TestBackwardArenaReducesAllocs(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{})
	opts := BackwardOptions{GaussianGrads: true, PoseGrads: true}
	ctx := NewRenderContext()
	ctx.Backward(cloud, cam, res, target, lc, opts)
	recycled := testing.AllocsPerRun(10, func() {
		ctx.Backward(cloud, cam, res, target, lc, opts)
	})
	fresh := testing.AllocsPerRun(10, func() {
		NewRenderContext().Backward(cloud, cam, res, target, lc, opts)
	})
	// The arena removes the offsets/loss/pose partials and all four gradient
	// slot buffers (7 allocations) from the steady state.
	if recycled > fresh-3 {
		t.Errorf("arena saves too little: %.0f allocs/op recycled vs %.0f fresh", recycled, fresh)
	}
}
