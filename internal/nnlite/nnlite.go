// Package nnlite is the shape table of the Droid-SLAM-style network the AGS
// pose tracking engine runs on its systolic array: a downsampling feature CNN
// followed by ConvGRU update iterations. It holds layer shapes and counts
// multiply-accumulates; it has no weights and runs nothing. The functional
// coarse pose in this reproduction comes from the classical aligner
// (internal/tracker); this package supplies the compute workload the hardware
// model charges for it (see README: substitutions).
package nnlite

// Conv2D is the shape of a dense 2D convolution layer.
type Conv2D struct {
	InC, OutC int
	K         int // square kernel size
	Stride    int
	Pad       int
}

// OutSize returns the output spatial size for an input of the given size.
func (c Conv2D) OutSize(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// MACs returns the multiply-accumulate count for an input of the given size.
func (c Conv2D) MACs(h, w int) int64 {
	oh, ow := c.OutSize(h, w)
	return int64(oh) * int64(ow) * int64(c.OutC) * int64(c.InC) * int64(c.K) * int64(c.K)
}

// ConvGRU is the shape of a convolutional gated recurrent unit: its three
// gates (update, reset, candidate) are same-size 2D convolutions over the
// concatenation of the hidden state and the input, as in Droid-SLAM's update
// operator.
type ConvGRU struct {
	HiddenC, InputC int
	K               int
}

// MACs returns the per-step multiply-accumulate count at the given spatial size.
func (g ConvGRU) MACs(h, w int) int64 {
	gate := Conv2D{InC: g.HiddenC + g.InputC, OutC: g.HiddenC, K: g.K, Stride: 1, Pad: g.K / 2}
	return 3 * gate.MACs(h, w)
}

// PoseBackbone is the network's shape: the feature pyramid's layers, the
// update operator and how many times it iterates per coarse pose estimation.
type PoseBackbone struct {
	Convs    []Conv2D
	GRU      ConvGRU
	GRUIters int
}

// poseShape is the default backbone: a 3->32/2, 32->64/2, 64->96/2 feature
// pyramid and a 96-channel 3x3 ConvGRU run for 8 iterations — Droid-SLAM's
// update operator scaled to this reproduction's frame sizes.
var poseShape = PoseBackbone{
	Convs: []Conv2D{
		{InC: 3, OutC: 32, K: 3, Stride: 2, Pad: 1},
		{InC: 32, OutC: 64, K: 3, Stride: 2, Pad: 1},
		{InC: 64, OutC: 96, K: 3, Stride: 2, Pad: 1},
	},
	GRU:      ConvGRU{HiddenC: 96, InputC: 96, K: 3},
	GRUIters: 8,
}

// PoseWorkload returns the default backbone's Workload(w, h): the MAC count
// slam charges to the hardware model for every coarse pose estimation.
func PoseWorkload(w, h int) int64 { return poseShape.Workload(w, h) }

// Workload returns the MAC count of one coarse pose estimation at the given
// input resolution: feature extraction on both frames plus GRU iterations.
func (b PoseBackbone) Workload(w, h int) int64 {
	var macs int64
	fh, fw := h, w
	for _, c := range b.Convs {
		macs += c.MACs(fh, fw) * 2 // features for previous and current frame
		fh, fw = c.OutSize(fh, fw)
	}
	macs += b.GRU.MACs(fh, fw) * int64(b.GRUIters)
	return macs
}
