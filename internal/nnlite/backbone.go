package nnlite

import (
	"math/rand"

	"ags/internal/frame"
)

// PoseBackbone is the Droid-SLAM-style network the AGS pose tracking engine
// executes on its systolic array: a downsampling feature CNN followed by
// ConvGRU update iterations. The functional coarse pose in this reproduction
// comes from the classical aligner (internal/tracker); the backbone supplies
// the matching compute workload — layer shapes, MAC counts and a real forward
// pass — that the hardware model times (see README: substitutions).
type PoseBackbone struct {
	Convs    []*Conv2D
	GRU      *ConvGRU
	GRUIters int
}

// poseShape is the default backbone without its weights: a 3->32/2, 32->64/2,
// 64->96/2 feature pyramid and a 96-channel 3x3 ConvGRU run for 8 iterations
// — Droid-SLAM's update operator scaled to this reproduction's frame sizes.
// It can count MACs but not run; NewPoseBackbone builds the runnable network
// from the same shapes.
var poseShape = func() PoseBackbone {
	gru := &ConvGRU{HiddenC: 96, InputC: 96, K: 3}
	gate := &Conv2D{InC: gru.HiddenC + gru.InputC, OutC: gru.HiddenC, K: gru.K, Stride: 1, Pad: gru.K / 2}
	gru.convZ, gru.convR, gru.convQ = gate, gate, gate
	return PoseBackbone{
		Convs: []*Conv2D{
			{InC: 3, OutC: 32, K: 3, Stride: 2, Pad: 1},
			{InC: 32, OutC: 64, K: 3, Stride: 2, Pad: 1},
			{InC: 64, OutC: 96, K: 3, Stride: 2, Pad: 1},
		},
		GRU:      gru,
		GRUIters: 8,
	}
}()

// NewPoseBackbone builds the default backbone with seeded weights.
func NewPoseBackbone(seed int64) *PoseBackbone {
	rng := rand.New(rand.NewSource(seed))
	b := &PoseBackbone{GRUIters: poseShape.GRUIters}
	for _, c := range poseShape.Convs {
		b.Convs = append(b.Convs, NewConv2D(c.InC, c.OutC, c.K, c.Stride, c.Pad, rng))
	}
	b.GRU = NewConvGRU(poseShape.GRU.HiddenC, poseShape.GRU.InputC, poseShape.GRU.K, rng)
	return b
}

// PoseWorkload returns the default backbone's Workload(w, h) from its layer
// shapes alone: callers that only charge the MAC count to the hardware model
// need not build (and seed 4 MB of weights for) a network they never run.
func PoseWorkload(w, h int) int64 { return poseShape.Workload(w, h) }

// Workload returns the MAC count of one coarse pose estimation at the given
// input resolution: feature extraction on both frames plus GRU iterations.
func (b *PoseBackbone) Workload(w, h int) int64 {
	var macs int64
	fh, fw := h, w
	for _, c := range b.Convs {
		macs += c.MACs(fh, fw) * 2 // features for previous and current frame
		fh, fw = c.OutSize(fh, fw)
	}
	macs += b.GRU.MACs(fh, fw) * int64(b.GRUIters)
	return macs
}

// imageToTensor converts an RGB image into a 3xHxW tensor.
func imageToTensor(im *frame.Image) *Tensor {
	t := NewTensor(3, im.H, im.W)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			p := im.At(x, y)
			t.Set(0, y, x, p.X)
			t.Set(1, y, x, p.Y)
			t.Set(2, y, x, p.Z)
		}
	}
	return t
}

// Features runs the CNN feature extractor on an image.
func (b *PoseBackbone) Features(im *frame.Image) (*Tensor, error) {
	t := imageToTensor(im)
	var err error
	for _, c := range b.Convs {
		t, err = c.Forward(t)
		if err != nil {
			return nil, err
		}
		ReLU(t)
	}
	return t, nil
}

// Embed runs feature extraction on both frames, iterates the ConvGRU with
// the current frame's features as input, and returns a pooled embedding.
// The embedding itself is not used for pose (the classical aligner is), but
// running it end-to-end keeps the simulated workload honest and testable.
func (b *PoseBackbone) Embed(prev, cur *frame.Image) ([]float64, error) {
	fp, err := b.Features(prev)
	if err != nil {
		return nil, err
	}
	fc, err := b.Features(cur)
	if err != nil {
		return nil, err
	}
	h := fp
	for i := 0; i < b.GRUIters; i++ {
		h, err = b.GRU.Step(h, fc)
		if err != nil {
			return nil, err
		}
	}
	return GlobalAvgPool(h), nil
}
