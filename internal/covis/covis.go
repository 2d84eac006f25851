// Package covis turns the CODEC's accumulated minimum-SAD values into the
// frame-covisibility (FC) metric that drives AGS (paper §4.1): a normalized
// score in [0,1] where 1 means identical frames, plus the 5-level
// quantization used by the contribution-similarity analysis (Fig. 6/22).
// It reads the minima the CODEC computes anyway, so what the FC engine costs
// does not depend on how the encoder searches.
package covis

import (
	"fmt"

	"ags/internal/codec"
	"ags/internal/frame"
)

// Score is a frame-covisibility value in [0,1]; higher means more shared
// content between the two frames.
type Score float64

// Level is the 5-way quantization of covisibility used in Fig. 6 and
// Fig. 22; level 5 is the highest covisibility.
type Level int

// Detector computes covisibility using the CODEC ME model. It corresponds to
// the FC detection engine reading SAD values the CODEC already produced.
//
// A Detector keeps the luma planes of the last three images it compared and
// the ME's probe-dedup scratch between comparisons: a frame's two comparisons
// (previous frame and key frame, each against the frame) read three images,
// and the frame before read two of them. It recognises an image by pointer,
// under the contract tracker.CoarseAligner puts on the same frames: an image
// handed in must not be modified afterwards. A Detector serves one goroutine
// at a time; its results are those of codec.MotionEstimate on the same pair.
type Detector struct {
	Cfg codec.Config
	// Sensitivity scales the normalized SAD before conversion to a score.
	// Natural video rarely approaches the worst-case SAD (all pixels
	// saturating the 8-bit range) and motion compensation absorbs most of
	// the inter-frame difference, so raw normalized SAD would compress all
	// frames into the top few percent of the scale. The default of 20 maps
	// typical SLAM frame-to-frame differences across the full [0,1] range at
	// this reproduction's resolutions (see README: threshold mapping).
	Sensitivity float64

	planes [3]lumaPlane // most recently used first
	seen   []uint32
}

// lumaPlane is an image's luma plane, as the detector keeps it.
type lumaPlane struct {
	img *frame.Image
	y   []uint8
}

// NewDetector returns a Detector with the paper's ME configuration.
func NewDetector() *Detector {
	return &Detector{Cfg: codec.DefaultConfig(), Sensitivity: 20}
}

// Compare returns the covisibility between two frames and the ME result it
// was scored from, whose SADOps is the CODEC work the hardware model charges.
func (d *Detector) Compare(prev, cur *frame.Image) (Score, *codec.Result, error) {
	res, err := codec.Estimate(d.luma(prev), d.luma(cur), d.Cfg, &d.seen)
	if err != nil {
		return 0, nil, fmt.Errorf("covis: %w", err)
	}
	norm := float64(res.SumMinSAD()) / float64(res.MaxPossibleSAD())
	return Score(min(max(1-d.Sensitivity*norm, 0), 1)), res, nil
}

// luma returns im's luma plane and makes it the most recently used. An image
// that is not among the kept three is converted into the storage of the least
// recently used one.
func (d *Detector) luma(im *frame.Image) codec.Plane {
	i := 0
	for i < len(d.planes)-1 && d.planes[i].img != im {
		i++
	}
	p := d.planes[i]
	if p.img != im {
		p = lumaPlane{img: im, y: im.Luma8Into(p.y)}
	}
	copy(d.planes[1:i+1], d.planes[:i])
	d.planes[0] = p
	return codec.Plane{W: im.W, H: im.H, Y: p.y}
}

// LevelOf quantizes a covisibility score into 5 levels (1 = lowest
// covisibility, 5 = highest), with uniform bins over [0,1].
func LevelOf(s Score) Level {
	switch {
	case s >= 0.8:
		return 5
	case s >= 0.6:
		return 4
	case s >= 0.4:
		return 3
	case s >= 0.2:
		return 2
	default:
		return 1
	}
}

// Band classifies a score into the High/Medium/Low buckets of Fig. 22.
func Band(s Score) string {
	switch {
	case s >= 0.75:
		return "High"
	case s >= 0.45:
		return "Medium"
	default:
		return "Low"
	}
}
