// Package nnlite is a small, dependency-free CNN inference library: tensors,
// 2D convolutions, activations and a convolutional GRU cell. The AGS pose
// tracking engine runs a Droid-SLAM-style backbone (feature CNN + ConvGRU) on
// its systolic array; this package provides that workload — real arithmetic
// with exact MAC counts — for the coarse pose estimation stage and for the
// hardware model's systolic-array timing (see README: substitutions).
package nnlite

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a CHW-ordered dense tensor.
type Tensor struct {
	C, H, W int
	Data    []float64
}

// NewTensor returns a zero tensor of the given shape.
func NewTensor(c, h, w int) *Tensor {
	return &Tensor{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// At returns the element at (channel, y, x).
func (t *Tensor) At(c, y, x int) float64 { return t.Data[(c*t.H+y)*t.W+x] }

// Set stores v at (channel, y, x).
func (t *Tensor) Set(c, y, x int, v float64) { t.Data[(c*t.H+y)*t.W+x] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Conv2D is a dense 2D convolution layer.
type Conv2D struct {
	InC, OutC int
	K         int // square kernel size
	Stride    int
	Pad       int
	Weight    []float64 // [outC][inC][K][K]
	Bias      []float64
}

// NewConv2D returns a convolution with He-initialized weights drawn from the
// seeded generator, so every run (and the hardware trace) is deterministic.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: make([]float64, outC*inC*k*k),
		Bias:   make([]float64, outC),
	}
	std := math.Sqrt(2 / float64(inC*k*k))
	for i := range c.Weight {
		c.Weight[i] = rng.NormFloat64() * std
	}
	return c
}

// OutSize returns the output spatial size for an input of the given size.
func (c *Conv2D) OutSize(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// MACs returns the multiply-accumulate count for an input of the given size.
func (c *Conv2D) MACs(h, w int) int64 {
	oh, ow := c.OutSize(h, w)
	return int64(oh) * int64(ow) * int64(c.OutC) * int64(c.InC) * int64(c.K) * int64(c.K)
}

// Forward applies the convolution.
func (c *Conv2D) Forward(in *Tensor) (*Tensor, error) {
	if in.C != c.InC {
		return nil, fmt.Errorf("nnlite: conv expects %d channels, got %d", c.InC, in.C)
	}
	oh, ow := c.OutSize(in.H, in.W)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nnlite: input %dx%d too small for kernel %d", in.H, in.W, c.K)
	}
	out := NewTensor(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := c.Bias[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						if iy < 0 || iy >= in.H {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if ix < 0 || ix >= in.W {
								continue
							}
							wgt := c.Weight[((oc*c.InC+ic)*c.K+ky)*c.K+kx]
							acc += wgt * in.At(ic, iy, ix)
						}
					}
				}
				out.Set(oc, oy, ox, acc)
			}
		}
	}
	return out, nil
}

// ReLU applies max(0,x) in place and returns the tensor.
func ReLU(t *Tensor) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// sigmoid/tanh helpers for the GRU gates.
func sigmoidf(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// ConvGRU is a convolutional gated recurrent unit: gates are 2D convolutions
// over the concatenation of the hidden state and the input, as in
// Droid-SLAM's update operator.
type ConvGRU struct {
	HiddenC, InputC     int
	K                   int
	convZ, convR, convQ *Conv2D
}

// NewConvGRU returns a ConvGRU with deterministic weights.
func NewConvGRU(hiddenC, inputC, k int, rng *rand.Rand) *ConvGRU {
	pad := k / 2
	return &ConvGRU{
		HiddenC: hiddenC, InputC: inputC, K: k,
		convZ: NewConv2D(hiddenC+inputC, hiddenC, k, 1, pad, rng),
		convR: NewConv2D(hiddenC+inputC, hiddenC, k, 1, pad, rng),
		convQ: NewConv2D(hiddenC+inputC, hiddenC, k, 1, pad, rng),
	}
}

// MACs returns the per-step multiply-accumulate count at the given spatial size.
func (g *ConvGRU) MACs(h, w int) int64 {
	return g.convZ.MACs(h, w) + g.convR.MACs(h, w) + g.convQ.MACs(h, w)
}

// concat stacks h then x along channels.
func concat(h, x *Tensor) *Tensor {
	out := NewTensor(h.C+x.C, h.H, h.W)
	copy(out.Data[:len(h.Data)], h.Data)
	copy(out.Data[len(h.Data):], x.Data)
	return out
}

// Step advances the GRU: h' = (1-z)*h + z*q.
func (g *ConvGRU) Step(h, x *Tensor) (*Tensor, error) {
	if h.C != g.HiddenC || x.C != g.InputC || h.H != x.H || h.W != x.W {
		return nil, fmt.Errorf("nnlite: GRU shape mismatch h=%dx%dx%d x=%dx%dx%d",
			h.C, h.H, h.W, x.C, x.H, x.W)
	}
	hx := concat(h, x)
	z, err := g.convZ.Forward(hx)
	if err != nil {
		return nil, err
	}
	r, err := g.convR.Forward(hx)
	if err != nil {
		return nil, err
	}
	for i := range z.Data {
		z.Data[i] = sigmoidf(z.Data[i])
		r.Data[i] = sigmoidf(r.Data[i])
	}
	rh := h.Clone()
	for i := range rh.Data {
		rh.Data[i] *= r.Data[i]
	}
	q, err := g.convQ.Forward(concat(rh, x))
	if err != nil {
		return nil, err
	}
	out := NewTensor(h.C, h.H, h.W)
	for i := range out.Data {
		qi := math.Tanh(q.Data[i])
		out.Data[i] = (1-z.Data[i])*h.Data[i] + z.Data[i]*qi
	}
	return out, nil
}

// GlobalAvgPool reduces a tensor to a per-channel mean vector.
func GlobalAvgPool(t *Tensor) []float64 {
	out := make([]float64, t.C)
	hw := float64(t.H * t.W)
	for c := 0; c < t.C; c++ {
		var sum float64
		for i := c * t.H * t.W; i < (c+1)*t.H*t.W; i++ {
			sum += t.Data[i]
		}
		out[c] = sum / hw
	}
	return out
}
