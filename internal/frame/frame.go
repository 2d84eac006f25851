// Package frame defines the image containers shared by the renderer, the
// CODEC model, the tracker and the dataset generator: float RGB images,
// metric depth maps, and the RGB-D frames streamed through the SLAM pipeline.
package frame

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ags/internal/vecmath"
)

// Image is a dense RGB image with float64 channels in [0,1], row-major.
type Image struct {
	W, H int
	Pix  []vecmath.Vec3 // Pix[y*W+x] = (R,G,B)
}

// NewImage returns a black image of the given size.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]vecmath.Vec3, w*h)}
}

// At returns the pixel at (x, y). Out-of-bounds coordinates are clamped.
func (im *Image) At(x, y int) vecmath.Vec3 {
	x = min(max(x, 0), im.W-1)
	y = min(max(y, 0), im.H-1)
	return im.Pix[y*im.W+x]
}

// Set stores c at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, c vecmath.Vec3) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = c
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Luma returns the per-pixel luminance (Rec.601 weights) as a flat slice,
// written over dst's storage when that is large enough (nil allocates).
func (im *Image) Luma(dst []float64) []float64 {
	out := slices.Grow(dst[:0], len(im.Pix))[:len(im.Pix)]
	for i, p := range im.Pix {
		out[i] = 0.299*p.X + 0.587*p.Y + 0.114*p.Z
	}
	return out
}

// Luma8 returns the luminance quantized to 8-bit values, matching what a
// hardware CODEC's motion-estimation block consumes.
func (im *Image) Luma8() []uint8 { return im.Luma8Into(nil) }

// Luma8Into is Luma8 written over dst's storage when that is large enough
// (nil allocates).
func (im *Image) Luma8Into(dst []uint8) []uint8 {
	out := slices.Grow(dst[:0], len(im.Pix))[:len(im.Pix)]
	for i, p := range im.Pix {
		y := 0.299*p.X + 0.587*p.Y + 0.114*p.Z
		out[i] = uint8(vecmath.Clamp(y, 0, 1)*255 + 0.5)
	}
	return out
}

// Downsample returns the image reduced by 2x using 2x2 box averaging. It
// overwrites and returns dst, reusing its pixel storage, when dst is not nil.
func (im *Image) Downsample(dst *Image) *Image {
	w, h := im.W/2, im.H/2
	out := dst
	if out == nil {
		out = &Image{}
	}
	out.W, out.H, out.Pix = w, h, slices.Grow(out.Pix[:0], w*h)[:w*h]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := im.At(2*x, 2*y).
				Add(im.At(2*x+1, 2*y)).
				Add(im.At(2*x, 2*y+1)).
				Add(im.At(2*x+1, 2*y+1))
			out.Pix[y*w+x] = sum.Scale(0.25)
		}
	}
	return out
}

// DepthMap is a dense metric depth image; zero means "no measurement".
type DepthMap struct {
	W, H int
	D    []float64
}

// NewDepthMap returns an all-zero (invalid) depth map.
func NewDepthMap(w, h int) *DepthMap {
	return &DepthMap{W: w, H: h, D: make([]float64, w*h)}
}

// At returns the depth at (x, y) with border clamping.
func (dm *DepthMap) At(x, y int) float64 {
	x = min(max(x, 0), dm.W-1)
	y = min(max(y, 0), dm.H-1)
	return dm.D[y*dm.W+x]
}

// Set stores d at (x, y); out-of-bounds writes are ignored.
func (dm *DepthMap) Set(x, y int, d float64) {
	if x < 0 || y < 0 || x >= dm.W || y >= dm.H {
		return
	}
	dm.D[y*dm.W+x] = d
}

// Clone returns a deep copy.
func (dm *DepthMap) Clone() *DepthMap {
	out := NewDepthMap(dm.W, dm.H)
	copy(out.D, dm.D)
	return out
}

// Downsample reduces the map by 2x, averaging only valid (non-zero) samples.
// Like Image.Downsample it overwrites and returns dst when dst is not nil.
func (dm *DepthMap) Downsample(dst *DepthMap) *DepthMap {
	w, h := dm.W/2, dm.H/2
	out := dst
	if out == nil {
		out = &DepthMap{}
	}
	out.W, out.H, out.D = w, h, slices.Grow(out.D[:0], w*h)[:w*h]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum float64
			var n int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					if d := dm.At(2*x+dx, 2*y+dy); d > 0 {
						sum += d
						n++
					}
				}
			}
			var mean float64 // stays 0, invalid, when no sample is valid
			if n > 0 {
				mean = sum / float64(n)
			}
			out.D[y*w+x] = mean
		}
	}
	return out
}

// Frame is one RGB-D observation streamed into the SLAM system.
type Frame struct {
	Index  int
	Color  *Image
	Depth  *DepthMap
	GTPose vecmath.Pose // ground-truth world->camera pose (evaluation only)
}

// ErrPlaneSize is what Validate wraps when a pixel plane's length is not its
// declared width x height: every consumer indexes planes by y*W+x, so such a
// frame would be an index out of range somewhere inside the pipeline.
var ErrPlaneSize = errors.New("pixel plane length does not match its dimensions")

// ErrNonFinite is what Validate wraps when a colour or depth sample is NaN or
// infinite: one such sample reaches every Gaussian through the loss and
// leaves the whole map non-finite.
var ErrNonFinite = errors.New("non-finite sample")

// Validate reports whether the frame's buffers are consistent: both planes
// present, of one size, each exactly W x H long, and every sample finite (a
// depth of zero or below is a pixel with no measurement).
func (f *Frame) Validate() error {
	if f.Color == nil || f.Depth == nil {
		return fmt.Errorf("frame %d: missing color or depth", f.Index)
	}
	if f.Color.W != f.Depth.W || f.Color.H != f.Depth.H {
		return fmt.Errorf("frame %d: color %dx%d vs depth %dx%d",
			f.Index, f.Color.W, f.Color.H, f.Depth.W, f.Depth.H)
	}
	w, h := f.Color.W, f.Color.H
	if !planeHolds(len(f.Color.Pix), w, h) {
		return fmt.Errorf("frame %d: color plane of %d pixels declared %dx%d: %w", f.Index, len(f.Color.Pix), w, h, ErrPlaneSize)
	}
	if !planeHolds(len(f.Depth.D), w, h) {
		return fmt.Errorf("frame %d: depth plane of %d pixels declared %dx%d: %w", f.Index, len(f.Depth.D), w, h, ErrPlaneSize)
	}
	for i, c := range f.Color.Pix {
		if !c.IsFinite() {
			return fmt.Errorf("frame %d: colour %v at pixel %d: %w", f.Index, c, i, ErrNonFinite)
		}
	}
	for i, d := range f.Depth.D {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("frame %d: depth %v at pixel %d: %w", f.Index, d, i, ErrNonFinite)
		}
	}
	return nil
}

// planeHolds reports whether n is exactly w x h, for dimensions that are not
// negative and whose product does not overflow.
func planeHolds(n, w, h int) bool {
	return w >= 0 && h >= 0 && n == w*h && (w == 0 || n/w == h)
}

// MeanAbsDiff returns the mean absolute per-channel difference between two
// images of identical size; it returns +Inf on size mismatch.
func MeanAbsDiff(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		return math.Inf(1)
	}
	var sum float64
	for i := range a.Pix {
		d := a.Pix[i].Sub(b.Pix[i])
		sum += math.Abs(d.X) + math.Abs(d.Y) + math.Abs(d.Z)
	}
	return sum / float64(3*len(a.Pix))
}
