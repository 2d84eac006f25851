package optim

import (
	"math"
	"math/rand"
	"slices"
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

// refAdam is the flat-slice Adam step Begin and Update were split from, kept
// as the reference they must reproduce bit for bit.
type refAdam struct {
	m, v []float64
	step int
}

func (r *refAdam) step1(a *Adam, params, grads []float64) {
	if len(r.m) != len(params) {
		r.m, r.v, r.step = make([]float64, len(params)), make([]float64, len(params)), 0
	}
	r.step++
	b1t := 1 - math.Pow(beta1, float64(r.step))
	b2t := 1 - math.Pow(beta2, float64(r.step))
	for i := range params {
		g := grads[i]
		r.m[i] = beta1*r.m[i] + (1-beta1)*g
		r.v[i] = beta2*r.v[i] + (1-beta2)*g*g
		mHat := r.m[i] / b1t
		vHat := r.v[i] / b2t
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + eps)
	}
}

// TestBeginUpdateMatchesStep: Step, Begin followed by Update over the elements
// in any order, and the flat reference step agree bit for bit, over several
// steps, across a length change (which reinitialises) and after SetState.
func TestBeginUpdateMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vec := func(n int, scale float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = scale * rng.NormFloat64()
		}
		return out
	}
	stepped, split := NewAdam(0.01), NewAdam(0.01)
	var ref refAdam
	check := func(label string, n int) {
		want := vec(n, 1)
		viaStep, viaUpdate := slices.Clone(want), slices.Clone(want)
		grads := vec(n, 1e-2)
		ref.step1(stepped, want, grads)
		stepped.Step(viaStep, grads)
		split.Begin(n)
		for i := n - 1; i >= 0; i-- {
			viaUpdate[i] = split.Update(i, viaUpdate[i], grads[i])
		}
		for i := range want {
			if math.Float64bits(viaStep[i]) != math.Float64bits(want[i]) || math.Float64bits(viaUpdate[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d: Step %v, Begin+Update %v, reference %v", label, i, viaStep[i], viaUpdate[i], want[i])
			}
		}
		m, v, step := stepped.State()
		m2, v2, step2 := split.State()
		if step != ref.step || step2 != ref.step || !slices.Equal(m, ref.m) || !slices.Equal(v, ref.v) || !slices.Equal(m2, ref.m) || !slices.Equal(v2, ref.v) {
			t.Fatalf("%s: moments or step counters differ from the reference", label)
		}
	}
	for s := 0; s < 5; s++ {
		check("steady", 40)
	}
	for s := 0; s < 3; s++ {
		check("grown", 57) // the first of these reinitialises
	}
	// Optimizers restored from the reference's state continue its stream.
	stepped.SetState(slices.Clone(ref.m), slices.Clone(ref.v), ref.step)
	split.SetState(slices.Clone(ref.m), slices.Clone(ref.v), ref.step)
	for s := 0; s < 3; s++ {
		check("restored", 57)
	}
}

// TestAdamComplementsRoundAtRunTime: the compiler's 1-beta1 and 1-beta2 are
// the float64 subtractions a run-time beta gives. An untyped constant would
// be folded exactly instead (0x3FB999999999999A for 1-0.9, against the
// run-time 0x3FB9999999999998), and every trained map would move.
func TestAdamComplementsRoundAtRunTime(t *testing.T) {
	for _, c := range []struct{ folded, beta float64 }{{1 - beta1, beta1}, {1 - beta2, beta2}} {
		if got, want := math.Float64bits(c.folded), math.Float64bits(1-c.beta); got != want {
			t.Errorf("1-%v = %#x, want the run-time %#x", c.beta, got, want)
		}
	}
}

func TestAdamHandlesParamSizeChange(t *testing.T) {
	opt := NewAdam(0.01)
	opt.Step([]float64{0, 0}, []float64{1, 1})
	// Growing the parameter vector (densification adds Gaussians) must not
	// panic; state is reinitialized.
	opt.Step([]float64{0, 0, 0}, []float64{1, 1, 1})
}
