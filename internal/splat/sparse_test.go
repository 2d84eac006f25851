package splat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
)

// sparseScene is one trial of the sparse suite: a cloud, the splats a pass
// renders from it (projected, or adversarial), and a target to take the loss
// against.
type sparseScene struct {
	name   string
	cloud  *gauss.Cloud
	cam    camera.Camera
	splats []Splat
	target *frame.Frame
}

// sparseScenes covers frame sizes off the tile grid and with odd widths and
// heights (a lattice column or row on the image's last pixel), on seeded
// random clouds and on the adversarial splats of the reference suite.
func sparseScenes() []sparseScene {
	rng := rand.New(rand.NewSource(38))
	var out []sparseScene
	for _, adversarial := range []bool{false, true} {
		for _, sz := range []struct{ w, h int }{{64, 48}, {50, 37}, {97, 33}, {15, 17}} {
			cam := testCam(sz.w, sz.h)
			cloud := randomCloud(rng, 30+rng.Intn(40))
			splats := preprocessInto(nil, cloud, cam, nil)
			if adversarial {
				splats = adversarialSplats(rng, cloud, cam)
			}
			tgt := Render(randomCloud(rng, 12), cam, Options{})
			out = append(out, sparseScene{
				name:  fmt.Sprintf("%dx%d adversarial=%v", sz.w, sz.h, adversarial),
				cloud: cloud, cam: cam, splats: splats,
				target: &frame.Frame{Color: tgt.Color, Depth: tgt.NormalizedDepth()},
			})
		}
	}
	return out
}

// render runs the production tile pass over the scene's splats.
func (sc *sparseScene) render(ctx *RenderContext, opts Options) *Result {
	return renderSplats(ctx, sc.splats, sc.cloud, sc.cam, opts)
}

// TestSparseRenderMatchesDenseOnLattice: a sparse render's lattice pixels are
// the dense render's, byte for byte, in every plane and both per-pixel
// counters; every other pixel is empty; and the totals count the lattice.
func TestSparseRenderMatchesDenseOnLattice(t *testing.T) {
	for _, sc := range sparseScenes() {
		dense := sc.render(NewRenderContext(), Options{})
		for _, lo := range []bool{false, true} {
			sparse := sc.render(NewRenderContext(), Options{Sparse: true, LogContribution: lo})
			w, h := sc.cam.Intr.W, sc.cam.Intr.H
			var alphaOps, blendOps int64
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					pix := y*w + x
					want := emptyPixel
					if onLattice(x, y) {
						want = pixelBits(dense, pix)
					}
					if got := pixelBits(sparse, pix); got != want {
						t.Fatalf("%s: pixel (%d,%d) holds %x, want %x", sc.name, x, y, got, want)
					}
					alphaOps += int64(sparse.PerPixelAlpha[pix])
					blendOps += int64(sparse.PerPixelBlend[pix])
				}
			}
			if sparse.AlphaOps != alphaOps || sparse.BlendOps != blendOps {
				t.Errorf("%s: ops %d/%d, the lattice's planes sum to %d/%d", sc.name, sparse.AlphaOps, sparse.BlendOps, alphaOps, blendOps)
			}
			if want := ((w + 1) / 2) * ((h + 1) / 2); sparse.Pixels() != want || dense.Pixels() != w*h {
				t.Errorf("%s: sparse renders %d pixels, dense %d; want %d and %d", sc.name, sparse.Pixels(), dense.Pixels(), want, w*h)
			}
			if lo {
				// Every entry is touched at every lattice pixel of its tile.
				var touched int64
				for _, v := range sparse.Touched {
					touched += int64(v)
				}
				var want int64
				for ti := 0; ti < sparse.Tiles.NumTiles(); ti++ {
					want += int64(len(sparse.Tiles.ListAt(ti)) * latticeInTile(sparse.Tiles, ti, w, h))
				}
				if touched != want {
					t.Errorf("%s: the contribution log touches %d, the lattice has %d table visits", sc.name, touched, want)
				}
			}
		}
	}
}

// pixelBits is what a Result holds at one pixel, bit for bit: colour, depth,
// silhouette, PerPixelBlend and PerPixelAlpha.
func pixelBits(r *Result, pix int) [7]uint64 {
	c := r.Color.Pix[pix]
	return [7]uint64{math.Float64bits(c.X), math.Float64bits(c.Y), math.Float64bits(c.Z),
		math.Float64bits(r.Depth.D[pix]), math.Float64bits(r.Silhouette[pix]),
		uint64(r.PerPixelBlend[pix]), uint64(r.PerPixelAlpha[pix])}
}

// emptyPixel is a pixel no Gaussian reached: everything 0.
var emptyPixel [7]uint64

// latticeInTile counts tile ti's lattice pixels.
func latticeInTile(tiles *Tiles, ti, w, h int) int {
	x0, y0 := (ti%tiles.TW)*TileSize, (ti/tiles.TW)*TileSize
	n := 0
	for y := y0; y < min(y0+TileSize, h); y++ {
		for x := x0; x < min(x0+TileSize, w); x++ {
			if onLattice(x, y) {
				n++
			}
		}
	}
	return n
}

// TestSparseBackwardMatchesLatticeReference: a sparse Backward's loss, pixel
// count, pose twist (and Gaussian gradients) are the full-walk reference's
// over the dense reference render restricted to the lattice, with and without
// the silhouette mask: the lattice is what the loss covers, whatever the mask.
// A sparse Train, with and without a helper, gives the sparse render's Result
// and the same gradients.
func TestSparseBackwardMatchesLatticeReference(t *testing.T) {
	tracking := DefaultTrackingLoss()
	tracking.SilThreshold = 0.5
	losses := []LossConfig{DefaultMappingLoss(), tracking}
	bopts := []BackwardOptions{{PoseGrads: true}, {GaussianGrads: true, PoseGrads: true}, {}}
	ctx := NewRenderContext()
	ways, stop := twoWays()
	defer stop()
	for _, sc := range sparseScenes() {
		sparse := sc.render(NewRenderContext(), Options{Sparse: true})
		wantRes := sparse.Digest()
		ref := refRender(sc.splats, sc.cloud.Len(), sc.cam, Options{})
		for _, lc := range losses {
			for _, bo := range bopts {
				want := refBackward(sc.cloud, sc.cam, ref, sc.target, lc, bo, true)
				got := ctx.Backward(sc.cloud, sc.cam, sparse, sc.target, lc, bo)
				if lossBits(got) != lossBits(want) {
					t.Fatalf("%s, %+v, %+v: loss %v over %d pixels, twist %+v; lattice reference %v over %d, %+v",
						sc.name, lc, bo, got.Loss, got.Pixels, got.Pose, want.Loss, want.Pixels, want.Pose)
				}
				if canonicalGrads(got) != canonicalGrads(want) {
					t.Fatalf("%s, %+v, %+v: gradient digest differs from the lattice reference", sc.name, lc, bo)
				}
				for _, w := range ways {
					tr, tg := trainSplats(w.ctx, sc.splats, sc.cloud, sc.cam, Options{Sparse: true}, sc.target, lc, bo)
					if tr.Digest() != wantRes || canonicalGrads(tg) != canonicalGrads(want) {
						t.Fatalf("%s, %+v, %+v, %s train: Result or gradient digest differs from the sparse render and the lattice reference",
							sc.name, lc, bo, w.name)
					}
				}
			}
		}
		if g := ctx.Backward(sc.cloud, sc.cam, sparse, sc.target, DefaultMappingLoss(), BackwardOptions{}); g.Pixels != sparse.Pixels() {
			t.Errorf("%s: an unmasked sparse loss covers %d pixels, the lattice has %d", sc.name, g.Pixels, sparse.Pixels())
		}
	}
}

// lossBits is what the sparse reference compares first, bit for bit with
// every NaN as one pattern (an adversarial splat's loss is NaN; see
// canonicalNaN): the pixel count, the loss and the twist.
func lossBits(g *Grads) [8]uint64 {
	v, w := canonicalVec3(g.Pose.V), canonicalVec3(g.Pose.W)
	return [8]uint64{uint64(g.Pixels), math.Float64bits(canonicalNaN(g.Loss)),
		math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z),
		math.Float64bits(w.X), math.Float64bits(w.Y), math.Float64bits(w.Z)}
}

// TestSparseDeterminismAcrossWorkerCounts: the sparse render and its
// Backward are byte-identical to the one-shot pass for every pairing of a
// render and a backward context with and without a helper, at every
// GOMAXPROCS.
func TestSparseDeterminismAcrossWorkerCounts(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	opts := Options{Sparse: true, LogContribution: true}
	bo := BackwardOptions{GaussianGrads: true, PoseGrads: true}
	ref := Render(cloud, cam, opts)
	wantRes := ref.Digest()
	wantG := NewRenderContext().Backward(cloud, cam, ref, target, DefaultTrackingLoss(), bo).Digest()
	ways, stop := twoWays()
	defer stop()
	for _, procs := range workerCounts() {
		restore := withProcs(procs)
		for _, r := range ways {
			res := r.ctx.Render(cloud, cam, opts)
			if res.Digest() != wantRes {
				t.Errorf("GOMAXPROCS %d, %s: sparse render digest differs from the one-shot pass", procs, r.name)
			}
			for _, b := range ways {
				if b.ctx.Backward(cloud, cam, res, target, DefaultTrackingLoss(), bo).Digest() != wantG {
					t.Errorf("GOMAXPROCS %d, %s render, %s backward: sparse gradient digest differs from the one-shot pass", procs, r.name, b.name)
				}
			}
		}
		restore()
	}
}

// TestSparseThenDenseMatchesFreshContext: a context that rendered sparse
// (a tracking pass) and then renders dense (a mapping pass) gives the bytes a
// fresh context gives, so no off-lattice plane of the tracking pass reaches
// mapping; and the other way round.
func TestSparseThenDenseMatchesFreshContext(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	mapping := Options{LogContribution: true}
	tracking := Options{Sparse: true}
	mapB := BackwardOptions{GaussianGrads: true}
	trackB := BackwardOptions{PoseGrads: true}
	fresh := func(opts Options, lc LossConfig, bo BackwardOptions) ([32]byte, [32]byte) {
		res := Render(cloud, cam, opts)
		return res.Digest(), NewRenderContext().Backward(cloud, cam, res, target, lc, bo).Digest()
	}
	wantMap, wantMapG := fresh(mapping, DefaultMappingLoss(), mapB)
	wantTrack, wantTrackG := fresh(tracking, DefaultTrackingLoss(), trackB)

	ctx := NewRenderContext()
	for i := 0; i < 3; i++ {
		res := ctx.Render(cloud, cam, tracking)
		if res.Digest() != wantTrack || ctx.Backward(cloud, cam, res, target, DefaultTrackingLoss(), trackB).Digest() != wantTrackG {
			t.Fatalf("cycle %d: a sparse pass after a dense one differs from a fresh context's", i)
		}
		res = ctx.Render(cloud, cam, mapping)
		if res.Sparse || res.Digest() != wantMap || ctx.Backward(cloud, cam, res, target, DefaultMappingLoss(), mapB).Digest() != wantMapG {
			t.Fatalf("cycle %d: a dense pass after a sparse one differs from a fresh context's", i)
		}
	}
}
