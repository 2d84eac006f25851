package codec

import (
	"math"
	"math/rand"
	"testing"

	"ags/internal/frame"
	"ags/internal/vecmath"
)

// noiseImage builds a reproducible random image (rich texture for ME).
func noiseImage(w, h int, seed int64) *frame.Image {
	rng := rand.New(rand.NewSource(seed))
	im := frame.NewImage(w, h)
	for i := range im.Pix {
		v := rng.Float64()
		im.Pix[i] = vecmath.Vec3{X: v, Y: v, Z: v}
	}
	return im
}

// shiftImage translates the image by (dx, dy), clamping at borders.
func shiftImage(src *frame.Image, dx, dy int) *frame.Image {
	out := frame.NewImage(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			out.Set(x, y, src.At(x-dx, y-dy))
		}
	}
	return out
}

func TestIdenticalFramesZeroSAD(t *testing.T) {
	im := noiseImage(32, 32, 1)
	res, err := MotionEstimate(im, im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.SumMinSAD() != 0 {
		t.Errorf("identical frames SAD = %d", res.SumMinSAD())
	}
	for _, mv := range res.MV {
		if mv.DX != 0 || mv.DY != 0 {
			t.Fatalf("identical frames produced motion vector %+v", mv)
		}
	}
}

func TestFullSearchRecoversGlobalShift(t *testing.T) {
	im := noiseImage(48, 48, 2)
	shifted := shiftImage(im, 3, -2)
	cfg := Config{BlockSize: 8, SearchRange: 6, ThreeStep: false}
	res, err := MotionEstimate(im, shifted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interior macro-blocks must find the exact displacement: the block
	// content moved by (3,-2), so the best reference offset is (-3, 2).
	interior := 0
	correct := 0
	for by := 1; by < res.MBH-1; by++ {
		for bx := 1; bx < res.MBW-1; bx++ {
			interior++
			mv := res.MV[by*res.MBW+bx]
			if mv.DX == -3 && mv.DY == 2 {
				correct++
			}
		}
	}
	if correct < interior {
		t.Errorf("full search: %d/%d interior blocks found the shift", correct, interior)
	}
}

// smoothImage builds a low-frequency image; three-step search assumes the
// SAD surface is smooth, which natural video (unlike white noise) satisfies.
func smoothImage(w, h int, seed int64) *frame.Image {
	rng := rand.New(rand.NewSource(seed))
	p0, p1, p2 := rng.Float64()*6, rng.Float64()*6, rng.Float64()*6
	im := frame.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x)/float64(w), float64(y)/float64(h)
			v := 0.5 + 0.2*math.Sin(5*fx*math.Pi+p0) + 0.2*math.Cos(4*fy*math.Pi+p1) + 0.1*math.Sin(7*(fx+fy)*math.Pi+p2)
			im.Set(x, y, vecmath.Vec3{X: v, Y: v, Z: v})
		}
	}
	return im
}

func TestThreeStepApproximatesFullSearch(t *testing.T) {
	im := smoothImage(48, 48, 3)
	shifted := shiftImage(im, 2, 1)
	full, err := MotionEstimate(im, shifted, Config{BlockSize: 8, SearchRange: 8, ThreeStep: false})
	if err != nil {
		t.Fatal(err)
	}
	tss, err := MotionEstimate(im, shifted, Config{BlockSize: 8, SearchRange: 8, ThreeStep: true})
	if err != nil {
		t.Fatal(err)
	}
	// Three-step is an approximation: allow some slack but not much on a
	// clean global shift of a smooth image.
	if tss.SumMinSAD() > full.SumMinSAD()*3/2+1000 {
		t.Errorf("three-step SAD %d much worse than full %d", tss.SumMinSAD(), full.SumMinSAD())
	}
	// And it must be far cheaper.
	if tss.SADOps >= full.SADOps/3 {
		t.Errorf("three-step ops %d not much cheaper than full %d", tss.SADOps, full.SADOps)
	}
}

func TestSADMonotoneInDifference(t *testing.T) {
	im := noiseImage(32, 32, 4)
	slightlyOff := im.Clone()
	veryOff := noiseImage(32, 32, 99)
	for i := range slightlyOff.Pix {
		if i%7 == 0 {
			slightlyOff.Pix[i] = vecmath.Vec3{X: 1, Y: 1, Z: 1}.Sub(slightlyOff.Pix[i])
		}
	}
	cfg := DefaultConfig()
	rSlight, _ := MotionEstimate(im, slightlyOff, cfg)
	rVery, _ := MotionEstimate(im, veryOff, cfg)
	if rSlight.SumMinSAD() >= rVery.SumMinSAD() {
		t.Errorf("SAD not monotone: slight %d >= unrelated %d", rSlight.SumMinSAD(), rVery.SumMinSAD())
	}
}

func TestMotionEstimateErrors(t *testing.T) {
	a := noiseImage(32, 32, 5)
	b := noiseImage(16, 16, 5)
	if _, err := MotionEstimate(a, b, DefaultConfig()); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := MotionEstimate(a, a, Config{BlockSize: 0, SearchRange: 4}); err == nil {
		t.Error("zero block size accepted")
	}
	tiny := noiseImage(4, 4, 6)
	if _, err := MotionEstimate(tiny, tiny, DefaultConfig()); err == nil {
		t.Error("image smaller than block accepted")
	}
}

func TestEdgeBlocksCovered(t *testing.T) {
	// 30x22 is not divisible by the 8-pixel block: the grid must grow to
	// 4x3 with clamped partial blocks instead of dropping the remainder.
	im := noiseImage(30, 22, 8)
	res, err := MotionEstimate(im, im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MBW != 4 || res.MBH != 3 {
		t.Fatalf("grid %dx%d, want 4x3", res.MBW, res.MBH)
	}
	if res.Pixels != 30*22 {
		t.Errorf("covered pixels %d, want %d", res.Pixels, 30*22)
	}
	if res.SumMinSAD() != 0 {
		t.Errorf("identical frames SAD = %d", res.SumMinSAD())
	}
	// Worst-case frames: every covered pixel must contribute, including the
	// partial right/bottom blocks, so Sum == Max exactly.
	white := frame.NewImage(20, 12)
	black := frame.NewImage(20, 12)
	for i := range white.Pix {
		white.Pix[i] = vecmath.Vec3{X: 1, Y: 1, Z: 1}
	}
	wres, err := MotionEstimate(white, black, Config{BlockSize: 8, SearchRange: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(20 * 12 * 255); wres.SumMinSAD() != want || wres.MaxPossibleSAD() != want {
		t.Errorf("sum %d max %d, want both %d", wres.SumMinSAD(), wres.MaxPossibleSAD(), want)
	}
}

func TestThreeStepDeduplicatesProbes(t *testing.T) {
	// With SearchRange 1 the coarse ring and the unit ring are the same set
	// of candidates; a real encoder scans them once. Identical frames make
	// every probe cost exactly bs^2 ops (no early termination), so the count
	// is closed-form: origin + 8 ring candidates = 9 probes per block.
	im := noiseImage(16, 16, 9)
	res, err := MotionEstimate(im, im, Config{BlockSize: 8, SearchRange: 1, ThreeStep: true})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 9 * 64) // 4 blocks x 9 unique probes x 64 pixels
	if res.SADOps != want {
		t.Errorf("SADOps = %d, want %d (duplicate probes charged?)", res.SADOps, want)
	}
}

func TestMaxPossibleSAD(t *testing.T) {
	white := frame.NewImage(16, 16)
	black := frame.NewImage(16, 16)
	for i := range white.Pix {
		white.Pix[i] = vecmath.Vec3{X: 1, Y: 1, Z: 1}
	}
	res, err := MotionEstimate(white, black, Config{BlockSize: 8, SearchRange: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.SumMinSAD() != res.MaxPossibleSAD() {
		t.Errorf("black-vs-white SAD %d != max %d", res.SumMinSAD(), res.MaxPossibleSAD())
	}
}

func TestSADOpsCounted(t *testing.T) {
	im := noiseImage(32, 32, 7)
	res, err := MotionEstimate(im, im, Config{BlockSize: 8, SearchRange: 2, ThreeStep: false})
	if err != nil {
		t.Fatal(err)
	}
	// 16 blocks * 25 candidates * 64 pixels.
	want := int64(16 * 25 * 64)
	if res.SADOps != want {
		t.Errorf("SADOps = %d, want %d", res.SADOps, want)
	}
}
