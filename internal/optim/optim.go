// Package optim implements Adam, the first-order optimizer 3DGS training uses
// for both pose tracking and Gaussian mapping (matching SplaTAM). A step is
// Begin(n) over an n-element parameter vector, then Update once per element:
// callers whose parameters live in their own structures (mapper.Mapper steps
// the Gaussians of its map in place) update them where they lie, and Step is
// that loop over a flat slice. There is one arithmetic path, so both ways of
// stepping give the same bits. A caller with several parameter groups owns one
// Adam per group.
package optim

import "math"

// The standard Adam constants. They are typed so that 1-beta1 and 1-beta2
// round to float64 as the run-time subtraction does: an untyped 0.9 would make
// the compiler fold 1-0.9 exactly, one ulp away, and move every trained map.
const (
	beta1 float64 = 0.9
	beta2 float64 = 0.999
	eps   float64 = 1e-8
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR      float64
	m, v    []float64
	stepNum int
	// The bias corrections of the step Begin opened.
	b1t, b2t float64
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr}
}

// Step applies one Adam update to params.
func (a *Adam) Step(params, grads []float64) {
	a.Begin(len(params))
	for i, p := range params {
		params[i] = a.Update(i, p, grads[i])
	}
}

// Begin opens a step over n parameters: it reinitialises the moments when n
// is not their length (a map that grew), advances the step counter and
// computes the step's bias corrections. Each of the n parameters is then
// stepped once, through Update.
func (a *Adam) Begin(n int) {
	if len(a.m) != n {
		a.m = zeroed(a.m, n)
		a.v = zeroed(a.v, n)
		a.stepNum = 0
	}
	a.stepNum++
	a.b1t = 1 - math.Pow(beta1, float64(a.stepNum))
	a.b2t = 1 - math.Pow(beta2, float64(a.stepNum))
}

// Update advances parameter i's moments by its gradient g, within the step
// Begin opened, and returns its value p stepped.
func (a *Adam) Update(i int, p, g float64) float64 {
	a.m[i] = beta1*a.m[i] + (1-beta1)*g
	a.v[i] = beta2*a.v[i] + (1-beta2)*g*g
	mHat := a.m[i] / a.b1t
	vHat := a.v[i] / a.b2t
	return p - a.LR*mHat/(math.Sqrt(vHat)+eps)
}

// zeroed returns s resized to n with every element cleared. The parameter
// vector of a growing map is a little longer at every key frame, so a buffer
// that has to be re-made at least doubles instead of matching n.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

// State returns the optimizer's moments and step counter (shared slices —
// callers serialize, they don't mutate).
func (a *Adam) State() (m, v []float64, step int) { return a.m, a.v, a.stepNum }

// SetState restores moments and the step counter (snapshot restore). The
// slices are adopted, not copied; m and v must have equal length.
func (a *Adam) SetState(m, v []float64, step int) {
	a.m, a.v = m, v
	a.stepNum = step
}
