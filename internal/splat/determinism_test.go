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

// workerCounts is the table the determinism suite sweeps: the serial
// reference, a couple of shard layouts that split tiles unevenly, a count
// that rarely divides the tile grid, and whatever the host actually has.
func workerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
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
	res := Render(gt, cam, Options{Workers: 1})
	return &frame.Frame{Color: res.Color, Depth: res.NormalizedDepth()}
}

// TestRenderDeterminismAcrossWorkerCounts asserts the forward contract:
// identical SHA-256 over every output buffer and identical AlphaOps/BlendOps
// at every worker count.
func TestRenderDeterminismAcrossWorkerCounts(t *testing.T) {
	cloud, cam := determinismScene()
	opts := Options{Workers: 1, LogContribution: true}
	ref := Render(cloud, cam, opts)
	want := ref.Digest()
	for _, wkr := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", wkr), func(t *testing.T) {
			o := opts
			o.Workers = wkr
			got := Render(cloud, cam, o)
			if got.AlphaOps != ref.AlphaOps || got.BlendOps != ref.BlendOps {
				t.Errorf("op counters differ: alpha %d/%d blend %d/%d",
					got.AlphaOps, ref.AlphaOps, got.BlendOps, ref.BlendOps)
			}
			if got.Digest() != want {
				t.Errorf("render digest differs from Workers=1 reference")
			}
		})
	}
}

// TestBackwardDeterminismAcrossWorkerCounts asserts the backward contract:
// the full render+backward composition at any worker count is byte-identical
// to the serial reference (gradients, pose twist, loss, pixel count).
func TestBackwardDeterminismAcrossWorkerCounts(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	for _, lc := range []LossConfig{DefaultMappingLoss(), DefaultTrackingLoss()} {
		refRes := Render(cloud, cam, Options{Workers: 1})
		refG := Backward(cloud, cam, refRes, target, lc, BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: 1})
		wantRes, wantG := refRes.Digest(), refG.Digest()
		for _, wkr := range workerCounts() {
			name := fmt.Sprintf("masked=%v/workers=%d", lc.UseSilhouetteMask, wkr)
			t.Run(name, func(t *testing.T) {
				res := Render(cloud, cam, Options{Workers: wkr})
				if res.Digest() != wantRes {
					t.Fatalf("render digest differs from Workers=1 reference")
				}
				g := Backward(cloud, cam, res, target, lc, BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: wkr})
				if math.Float64bits(g.Loss) != math.Float64bits(refG.Loss) {
					t.Errorf("loss not bit-identical: %v vs %v", g.Loss, refG.Loss)
				}
				if g.Digest() != wantG {
					t.Errorf("gradient digest differs from Workers=1 reference")
				}
			})
		}
	}
}

// TestBackwardArenaDeterminism asserts the gradient-arena contract: a
// context's recycled partial buffers (including deliberately dirtied,
// size-mismatched reuses) produce gradients bitwise identical to a fresh
// one-shot call, across worker counts and repeated calls.
func TestBackwardArenaDeterminism(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	lc := DefaultMappingLoss()
	res := Render(cloud, cam, Options{Workers: 1})
	ref := Backward(cloud, cam, res, target, lc,
		BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: 1})
	want := ref.Digest()

	// A smaller companion scene dirties the arena with buffers of a different
	// tile/entry footprint between reference calls.
	smallCam := testCam(32, 32)
	smallRes := Render(cloud, smallCam, Options{Workers: 1})
	smallTarget := &frame.Frame{Color: smallRes.Color, Depth: smallRes.NormalizedDepth()}

	ctx := NewRenderContext()
	for _, wkr := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", wkr), func(t *testing.T) {
			for rep := 0; rep < 4; rep++ {
				ctx.Backward(cloud, smallCam, smallRes, smallTarget, lc,
					BackwardOptions{GaussianGrads: true, Workers: wkr})
				g := ctx.Backward(cloud, cam, res, target, lc,
					BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: wkr})
				if g.Digest() != want {
					t.Fatalf("rep %d: recycled-arena gradients diverged from the fresh reference", rep)
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
	res := Render(cloud, cam, Options{Workers: 1})
	opts := BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: 1}
	ctx := NewRenderContext()
	ctx.Backward(cloud, cam, res, target, lc, opts)
	recycled := testing.AllocsPerRun(10, func() {
		ctx.Backward(cloud, cam, res, target, lc, opts)
	})
	fresh := testing.AllocsPerRun(10, func() {
		Backward(cloud, cam, res, target, lc, opts)
	})
	// The arena removes the offsets/loss/pose partials and all four gradient
	// slot buffers (7 allocations) from the steady state.
	if recycled > fresh-3 {
		t.Errorf("arena saves too little: %.0f allocs/op recycled vs %.0f fresh", recycled, fresh)
	}
}

// TestShardRangesCoverAndOrder pins the shard partition itself: spans are
// contiguous, ascending, cover [0, n) exactly, and sizes differ by at most 1.
func TestShardRangesCoverAndOrder(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {5, 2}, {24, 3}, {24, 7}, {24, 24}, {24, 100}, {17, 0},
	} {
		ranges := shardRangesInto(nil, tc.n, tc.workers)
		if len(ranges) == 0 {
			t.Fatalf("n=%d workers=%d: no ranges", tc.n, tc.workers)
		}
		next := 0
		minSz, maxSz := tc.n+1, -1
		for _, rg := range ranges {
			if rg[0] != next || rg[1] < rg[0] {
				t.Fatalf("n=%d workers=%d: bad span %v (want start %d)", tc.n, tc.workers, rg, next)
			}
			sz := rg[1] - rg[0]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			next = rg[1]
		}
		if next != tc.n {
			t.Errorf("n=%d workers=%d: spans end at %d", tc.n, tc.workers, next)
		}
		if tc.n > 0 && maxSz-minSz > 1 {
			t.Errorf("n=%d workers=%d: uneven spans (min %d max %d)", tc.n, tc.workers, minSz, maxSz)
		}
	}
}
