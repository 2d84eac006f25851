package frame

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"testing"

	"ags/internal/vecmath"
)

func TestImageSetAtRoundTrip(t *testing.T) {
	im := NewImage(8, 6)
	c := vecmath.Vec3{X: 0.1, Y: 0.5, Z: 0.9}
	im.Set(3, 2, c)
	if got := im.At(3, 2); got != c {
		t.Errorf("At = %v", got)
	}
	// Out of bounds set must be a no-op; At must clamp.
	im.Set(-1, 0, c)
	im.Set(8, 0, c)
	if got := im.At(-5, -5); got != im.At(0, 0) {
		t.Error("At did not clamp")
	}
}

func TestImageClone(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(1, 1, vecmath.Vec3{X: 1})
	cp := im.Clone()
	cp.Set(1, 1, vecmath.Vec3{Y: 1})
	if im.At(1, 1).Y != 0 {
		t.Error("clone aliases original")
	}
}

func TestLumaWeights(t *testing.T) {
	im := NewImage(1, 1)
	im.Set(0, 0, vecmath.Vec3{X: 1, Y: 1, Z: 1})
	if l := im.Luma(nil)[0]; math.Abs(l-1) > 1e-9 {
		t.Errorf("white luma = %v", l)
	}
	im.Set(0, 0, vecmath.Vec3{Y: 1})
	if l := im.Luma(nil)[0]; math.Abs(l-0.587) > 1e-9 {
		t.Errorf("green luma = %v", l)
	}
}

func TestLuma8Range(t *testing.T) {
	im := NewImage(2, 1)
	im.Set(0, 0, vecmath.Vec3{X: 2, Y: 2, Z: 2})    // over-range clamps to 255
	im.Set(1, 0, vecmath.Vec3{X: -1, Y: -1, Z: -1}) // under-range clamps to 0
	l := im.Luma8()
	if l[0] != 255 || l[1] != 0 {
		t.Errorf("Luma8 = %v", l)
	}
	// Into a buffer large enough, the same plane over the buffer's storage.
	buf := make([]uint8, 5)
	if into := im.Luma8Into(buf); !slices.Equal(into, l) || &into[0] != &buf[0] {
		t.Errorf("Luma8Into = %v over its own storage, want %v over the buffer's", into, l)
	}
}

func TestDownsampleAveraging(t *testing.T) {
	im := NewImage(4, 2)
	for x := 0; x < 4; x++ {
		for y := 0; y < 2; y++ {
			im.Set(x, y, vecmath.Vec3{X: float64(x % 2)})
		}
	}
	ds := im.Downsample(nil)
	if ds.W != 2 || ds.H != 1 {
		t.Fatalf("downsample size %dx%d", ds.W, ds.H)
	}
	if math.Abs(ds.At(0, 0).X-0.5) > 1e-9 {
		t.Errorf("box average = %v", ds.At(0, 0).X)
	}
}

func TestDepthDownsampleIgnoresInvalid(t *testing.T) {
	dm := NewDepthMap(2, 2)
	dm.Set(0, 0, 2.0)
	// Remaining three pixels invalid (0). Average must use the valid one only.
	ds := dm.Downsample(nil)
	if math.Abs(ds.At(0, 0)-2.0) > 1e-9 {
		t.Errorf("depth downsample = %v", ds.At(0, 0))
	}
	empty := NewDepthMap(2, 2).Downsample(nil)
	if empty.At(0, 0) != 0 {
		t.Error("all-invalid block should stay invalid")
	}
	// A reused destination is overwritten whatever it held and whatever its size.
	if reused := NewDepthMap(2, 2).Downsample(dm.Downsample(NewDepthMap(3, 3))); reused.W != 1 || reused.H != 1 || reused.At(0, 0) != 0 {
		t.Errorf("all-invalid block into a reused map: %dx%d, depth %v", reused.W, reused.H, reused.At(0, 0))
	}
}

func TestFrameValidate(t *testing.T) {
	f := &Frame{Index: 1, Color: NewImage(4, 4), Depth: NewDepthMap(4, 4)}
	if err := f.Validate(); err != nil {
		t.Errorf("valid frame rejected: %v", err)
	}
	bad := &Frame{Index: 2, Color: NewImage(4, 4), Depth: NewDepthMap(3, 4)}
	if err := bad.Validate(); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := (&Frame{Index: 3}).Validate(); err == nil {
		t.Error("nil buffers accepted")
	}
	// A plane that is not W x H long is an index out of range waiting in
	// whoever reads it: refused by name, for either plane, and for dimensions
	// whose product overflows to the plane's length.
	const half = 1 << (bits.UintSize / 2) // half x half wraps to 0
	for name, f := range map[string]*Frame{
		"short color": {Color: &Image{W: 4, H: 4, Pix: make([]vecmath.Vec3, 15)}, Depth: NewDepthMap(4, 4)},
		"short depth": {Color: NewImage(4, 4), Depth: &DepthMap{W: 4, H: 4, D: make([]float64, 8)}},
		"long depth":  {Color: NewImage(4, 4), Depth: &DepthMap{W: 4, H: 4, D: make([]float64, 17)}},
		"negative":    {Color: &Image{W: -4, H: -4, Pix: make([]vecmath.Vec3, 16)}, Depth: &DepthMap{W: -4, H: -4, D: make([]float64, 16)}},
		"overflowing": {Color: &Image{W: half, H: half}, Depth: &DepthMap{W: half, H: half}},
	} {
		if err := f.Validate(); !errors.Is(err, ErrPlaneSize) {
			t.Errorf("%s: Validate = %v, want ErrPlaneSize", name, err)
		}
	}
	// A NaN or infinite sample in either plane poisons every Gaussian the
	// loss reaches: refused by name. Zero and negative depths are pixels with
	// no measurement and pass.
	for name, edit := range map[string]func(f *Frame){
		"NaN colour":     func(f *Frame) { f.Color.Pix[5].Y = math.NaN() },
		"+Inf colour":    func(f *Frame) { f.Color.Pix[15].Z = math.Inf(1) },
		"NaN depth":      func(f *Frame) { f.Depth.D[3] = math.NaN() },
		"+Inf depth":     func(f *Frame) { f.Depth.D[0] = math.Inf(1) },
		"-Inf depth":     func(f *Frame) { f.Depth.D[9] = math.Inf(-1) },
		"negative depth": nil,
	} {
		f := &Frame{Color: NewImage(4, 4), Depth: NewDepthMap(4, 4)}
		f.Depth.D[7], f.Depth.D[8] = -1, 2
		if edit == nil {
			if err := f.Validate(); err != nil {
				t.Errorf("%s: Validate = %v, want nil", name, err)
			}
			continue
		}
		edit(f)
		if err := f.Validate(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Validate = %v, want ErrNonFinite", name, err)
		}
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a := NewImage(2, 2)
	b := NewImage(2, 2)
	if d := MeanAbsDiff(a, b); d != 0 {
		t.Errorf("identical images diff = %v", d)
	}
	b.Set(0, 0, vecmath.Vec3{X: 1, Y: 1, Z: 1})
	want := 3.0 / 12.0
	if d := MeanAbsDiff(a, b); math.Abs(d-want) > 1e-12 {
		t.Errorf("diff = %v want %v", d, want)
	}
	c := NewImage(3, 2)
	if !math.IsInf(MeanAbsDiff(a, c), 1) {
		t.Error("size mismatch should be +Inf")
	}
}
