// Package optim implements the first-order optimizers used for 3DGS training:
// Adam (the default for both pose tracking and Gaussian mapping, matching
// SplaTAM) and plain SGD. Optimizers operate over flat float64 parameter
// slices so callers can expose any view of their state.
package optim

import (
	"maps"
	"math"
	"slices"
)

// Optimizer updates a parameter vector in place given its gradient.
type Optimizer interface {
	// Step applies one update. params and grads must have the same length,
	// which must not change across calls.
	Step(params, grads []float64)
	// Reset clears accumulated state (moments, step counter).
	Reset()
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity []float64
}

// NewSGD returns an SGD optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step applies one SGD update.
func (s *SGD) Step(params, grads []float64) {
	if len(s.velocity) != len(params) {
		s.velocity = make([]float64, len(params))
	}
	for i := range params {
		s.velocity[i] = s.Momentum*s.velocity[i] - s.LR*grads[i]
		params[i] += s.velocity[i]
	}
}

// Reset clears the velocity buffer.
func (s *SGD) Reset() { s.velocity = nil }

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	m, v    []float64
	stepNum int
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update.
func (a *Adam) Step(params, grads []float64) {
	if len(a.m) != len(params) {
		a.m = zeroed(a.m, len(params))
		a.v = zeroed(a.v, len(params))
		a.stepNum = 0
	}
	a.stepNum++
	b1t := 1 - math.Pow(a.Beta1, float64(a.stepNum))
	b2t := 1 - math.Pow(a.Beta2, float64(a.stepNum))
	for i := range params {
		g := grads[i]
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		mHat := a.m[i] / b1t
		vHat := a.v[i] / b2t
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
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

// Reset clears moments and the step counter.
func (a *Adam) Reset() {
	a.m, a.v = nil, nil
	a.stepNum = 0
}

// Remap rebuilds the first and second moments through an ID permutation: the
// parameter vector is treated as n blocks of stride elements, and block old
// moves to block remap[old] when remap[old] < newN (blocks mapping at or
// beyond newN are dropped). The step counter is preserved — a remapped
// optimizer continues the surviving blocks' moment streams exactly, which is
// what keeps map compaction bit-transparent: without it, the next Step would
// see a changed length and silently reinitialize. A never-stepped optimizer
// remaps to itself.
func (a *Adam) Remap(stride int, remap []int32, newN int) {
	if a.m == nil {
		return
	}
	if len(a.m) != stride*len(remap) {
		// Stale moments (the parameter vector grew since the last Step): the
		// next Step would reinitialize in the un-remapped timeline too, so
		// mirror that instead of manufacturing a length that would dodge it.
		a.Reset()
		return
	}
	m := make([]float64, stride*newN)
	v := make([]float64, stride*newN)
	for old, nw := range remap {
		if int(nw) >= newN {
			continue
		}
		copy(m[int(nw)*stride:(int(nw)+1)*stride], a.m[old*stride:(old+1)*stride])
		copy(v[int(nw)*stride:(int(nw)+1)*stride], a.v[old*stride:(old+1)*stride])
	}
	a.m, a.v = m, v
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

// GroupAdam runs independent Adam state per named parameter group with its
// own learning rate; 3DGS training uses different rates for means, colors,
// opacities, scales and rotations.
type GroupAdam struct {
	groups map[string]*Adam
	rates  map[string]float64
}

// NewGroupAdam returns a GroupAdam with the given per-group learning rates
// (copied, so later caller mutations don't leak in).
func NewGroupAdam(rates map[string]float64) *GroupAdam {
	return &GroupAdam{groups: make(map[string]*Adam), rates: maps.Clone(rates)}
}

// Step updates one group. Unknown group names fall back to learning rate 1e-3.
func (g *GroupAdam) Step(group string, params, grads []float64) {
	opt, ok := g.groups[group]
	if !ok {
		lr, has := g.rates[group]
		if !has {
			lr = 1e-3
		}
		opt = NewAdam(lr)
		g.groups[group] = opt
	}
	opt.Step(params, grads)
}

// RemapGroup rebuilds one group's moment state through an ID permutation
// (see Adam.Remap). A group that has never stepped is left untouched.
func (g *GroupAdam) RemapGroup(group string, stride int, remap []int32, newN int) {
	if opt, ok := g.groups[group]; ok {
		opt.Remap(stride, remap, newN)
	}
}

// GroupNames returns the names of every group that has stepped at least once,
// sorted so serialization order is deterministic.
func (g *GroupAdam) GroupNames() []string {
	names := make([]string, 0, len(g.groups))
	for name := range g.groups {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// GroupState returns one group's moments and step counter; ok is false for
// groups that have never stepped.
func (g *GroupAdam) GroupState(group string) (m, v []float64, step int, ok bool) {
	opt, exists := g.groups[group]
	if !exists {
		return nil, nil, 0, false
	}
	m, v, step = opt.State()
	return m, v, step, true
}

// SetGroupState restores one group's moments and step counter (snapshot
// restore), creating the group with its configured learning rate if needed.
func (g *GroupAdam) SetGroupState(group string, m, v []float64, step int) {
	opt, ok := g.groups[group]
	if !ok {
		lr, has := g.rates[group]
		if !has {
			lr = 1e-3
		}
		opt = NewAdam(lr)
		g.groups[group] = opt
	}
	opt.SetState(m, v, step)
}

// Reset clears every group's state.
func (g *GroupAdam) Reset() {
	//ags:allow(maprange, Adam.Reset zeroes each group's own state and reads nothing shared, so visit order cannot matter)
	for _, opt := range g.groups {
		opt.Reset()
	}
}

// ClipGradNorm scales grads in place so the global L2 norm is at most max.
// It returns the pre-clip norm.
func ClipGradNorm(grads []float64, max float64) float64 {
	var sq float64
	for _, g := range grads {
		sq += g * g
	}
	norm := math.Sqrt(sq)
	if norm > max && norm > 0 {
		s := max / norm
		for i := range grads {
			grads[i] *= s
		}
	}
	return norm
}
