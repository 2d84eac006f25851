package nnlite

import (
	"math"
	"math/rand"
	"testing"

	"ags/internal/frame"
	"ags/internal/vecmath"
)

func TestConvIdentityKernel(t *testing.T) {
	// A 1x1 conv with weight 1 must reproduce the input.
	c := &Conv2D{InC: 1, OutC: 1, K: 1, Stride: 1, Pad: 0,
		Weight: []float64{1}, Bias: []float64{0}}
	in := NewTensor(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv changed data at %d", i)
		}
	}
}

func TestConvBoxFilter(t *testing.T) {
	// 3x3 all-ones kernel on a constant image: interior outputs = 9, corner
	// outputs (with zero padding) = 4.
	c := &Conv2D{InC: 1, OutC: 1, K: 3, Stride: 1, Pad: 1,
		Weight: make([]float64, 9), Bias: []float64{0}}
	for i := range c.Weight {
		c.Weight[i] = 1
	}
	in := NewTensor(1, 5, 5)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 2, 2) != 9 {
		t.Errorf("interior = %v", out.At(0, 2, 2))
	}
	if out.At(0, 0, 0) != 4 {
		t.Errorf("corner = %v", out.At(0, 0, 0))
	}
}

func TestConvStrideOutSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(3, 8, 3, 2, 1, rng)
	oh, ow := c.OutSize(64, 96)
	if oh != 32 || ow != 48 {
		t.Errorf("OutSize = %dx%d", oh, ow)
	}
	in := NewTensor(3, 64, 96)
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 8 || out.H != 32 || out.W != 48 {
		t.Errorf("forward shape %dx%dx%d", out.C, out.H, out.W)
	}
}

func TestConvMACCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(2, 4, 3, 1, 1, rng)
	// 4 out channels * 2 in channels * 9 kernel * 8*8 outputs.
	if got := c.MACs(8, 8); got != 4*2*9*64 {
		t.Errorf("MACs = %d", got)
	}
}

func TestConvChannelMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(3, 4, 3, 1, 1, rng)
	if _, err := c.Forward(NewTensor(2, 8, 8)); err == nil {
		t.Error("channel mismatch accepted")
	}
}

func TestReLU(t *testing.T) {
	in := NewTensor(1, 1, 3)
	in.Data = []float64{-1, 0, 2}
	ReLU(in)
	if in.Data[0] != 0 || in.Data[1] != 0 || in.Data[2] != 2 {
		t.Errorf("ReLU = %v", in.Data)
	}
}

func TestGRUStatePersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewConvGRU(4, 4, 3, rng)
	h := NewTensor(4, 6, 6)
	x := NewTensor(4, 6, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	h1, err := g.Step(h, x)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := g.Step(h1, x)
	if err != nil {
		t.Fatal(err)
	}
	// The state must stay bounded (tanh candidate) and evolve.
	var diff, maxAbs float64
	for i := range h1.Data {
		diff += math.Abs(h2.Data[i] - h1.Data[i])
		maxAbs = math.Max(maxAbs, math.Abs(h2.Data[i]))
	}
	if diff == 0 {
		t.Error("GRU state did not evolve")
	}
	if maxAbs > 1.0001 {
		t.Errorf("GRU state escaped tanh bound: %v", maxAbs)
	}
}

func TestGRUShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewConvGRU(4, 4, 3, rng)
	if _, err := g.Step(NewTensor(4, 6, 6), NewTensor(4, 5, 6)); err == nil {
		t.Error("spatial mismatch accepted")
	}
	if _, err := g.Step(NewTensor(3, 6, 6), NewTensor(4, 6, 6)); err == nil {
		t.Error("hidden channel mismatch accepted")
	}
}

func TestGRUConvergesOnConstantInput(t *testing.T) {
	// With a fixed input, repeated GRU steps should approach a fixed point:
	// step-to-step change must shrink.
	rng := rand.New(rand.NewSource(4))
	g := NewConvGRU(3, 3, 3, rng)
	h := NewTensor(3, 4, 4)
	x := NewTensor(3, 4, 4)
	for i := range x.Data {
		x.Data[i] = 0.5
	}
	var first, last float64
	prev := h
	for i := 0; i < 30; i++ {
		next, err := g.Step(prev, x)
		if err != nil {
			t.Fatal(err)
		}
		var d float64
		for j := range next.Data {
			d += math.Abs(next.Data[j] - prev.Data[j])
		}
		if i == 0 {
			first = d
		}
		last = d
		prev = next
	}
	if last >= first {
		t.Errorf("GRU updates not contracting: first %v last %v", first, last)
	}
}

func TestBackboneWorkloadAndEmbed(t *testing.T) {
	b := NewPoseBackbone(1)
	macs := b.Workload(96, 72)
	if macs <= 0 {
		t.Fatal("non-positive workload")
	}
	// Workload scales superlinearly in pixels but linearly per conv layer;
	// double resolution => ~4x MACs.
	macs2 := b.Workload(192, 144)
	ratio := float64(macs2) / float64(macs)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("workload scaling ratio = %v, want ~4", ratio)
	}
	// The shape-only count is the built network's, at sizes on and off the
	// stride grid.
	for _, sz := range [][2]int{{64, 48}, {96, 72}, {30, 22}, {640, 480}, {7, 5}} {
		if got, want := PoseWorkload(sz[0], sz[1]), b.Workload(sz[0], sz[1]); got != want {
			t.Errorf("PoseWorkload(%d, %d) = %d, backbone Workload = %d", sz[0], sz[1], got, want)
		}
	}

	im := frame.NewImage(32, 24)
	for i := range im.Pix {
		im.Pix[i] = vecmath.Vec3{X: float64(i%7) / 7, Y: 0.4, Z: 0.6}
	}
	emb, err := b.Embed(im, im)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != 96 {
		t.Errorf("embedding size %d", len(emb))
	}
	for _, v := range emb {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite embedding")
		}
	}
}

func TestBackboneDeterministic(t *testing.T) {
	im := frame.NewImage(16, 16)
	for i := range im.Pix {
		im.Pix[i] = vecmath.Vec3{X: float64(i) / 256}
	}
	e1, err := NewPoseBackbone(5).Embed(im, im)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewPoseBackbone(5).Embed(im, im)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed produced different embeddings")
		}
	}
}
