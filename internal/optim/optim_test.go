package optim

import (
	"math"
	"testing"
)

// quadratic is f(x) = sum (x_i - c_i)^2 with gradient 2*(x-c).
func quadGrad(x, c []float64) []float64 {
	g := make([]float64, len(x))
	for i := range x {
		g[i] = 2 * (x[i] - c[i])
	}
	return g
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	x := []float64{5, -3, 0.5}
	c := []float64{1, 2, -1}
	opt := NewAdam(0.1)
	for i := 0; i < 1500; i++ {
		opt.Step(x, quadGrad(x, c))
	}
	for i := range x {
		if math.Abs(x[i]-c[i]) > 1e-3 {
			t.Fatalf("Adam did not converge: x=%v", x)
		}
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ~LR
	// regardless of gradient scale.
	for _, scale := range []float64{1e-4, 1, 1e4} {
		x := []float64{0}
		opt := NewAdam(0.01)
		opt.Step(x, []float64{scale})
		if math.Abs(math.Abs(x[0])-0.01) > 1e-4 {
			t.Errorf("first step with grad %v moved %v", scale, x[0])
		}
	}
}

func TestAdamReset(t *testing.T) {
	x := []float64{0}
	opt := NewAdam(0.01)
	opt.Step(x, []float64{1})
	opt.Reset()
	y := []float64{0}
	opt.Step(y, []float64{1})
	if math.Abs(x[0]-y[0]) > 1e-12 {
		t.Error("reset did not restore initial state")
	}
}

func TestAdamHandlesParamSizeChange(t *testing.T) {
	opt := NewAdam(0.01)
	opt.Step([]float64{0, 0}, []float64{1, 1})
	// Growing the parameter vector (densification adds Gaussians) must not
	// panic; state is reinitialized.
	opt.Step([]float64{0, 0, 0}, []float64{1, 1, 1})
}
