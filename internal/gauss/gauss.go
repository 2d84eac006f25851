// Package gauss defines the 3D Gaussian primitive and the growable cloud of
// Gaussians the SLAM map is made of. Parameters follow SplaTAM's convention:
// RGB color (no spherical harmonics), logit opacity and one log scale. The
// Gaussians are isotropic, so they have no rotation, and every optimizer
// update is unconstrained.
package gauss

import (
	"fmt"
	"math"
	"slices"

	"ags/internal/vecmath"
)

// Gaussian is one isotropic 3D Gaussian primitive.
type Gaussian struct {
	Mean     vecmath.Vec3 // world-space center
	LogScale float64      // log standard deviation, the same along every axis
	Color    vecmath.Vec3 // RGB in [0,1] (stored unclamped, clamped at render)
	Logit    float64      // opacity in logit space; Opacity() = sigmoid(Logit)
}

// Opacity returns the Gaussian's opacity in (0,1).
func (g *Gaussian) Opacity() float64 { return Sigmoid(g.Logit) }

// SetOpacity stores o (clamped away from 0 and 1) in logit space.
func (g *Gaussian) SetOpacity(o float64) {
	o = vecmath.Clamp(o, 1e-6, 1-1e-6)
	g.Logit = math.Log(o / (1 - o))
}

// Scale returns the standard deviation exp(LogScale).
func (g *Gaussian) Scale() float64 { return math.Exp(g.LogScale) }

// SetScale stores the standard deviation s in log space.
func (g *Gaussian) SetScale(s float64) { g.LogScale = math.Log(math.Max(s, 1e-9)) }

// IsotropicCov returns the world-space covariance diag(s², s², s²) of a
// Gaussian of standard deviation s (Gaussian.Scale). For every finite s² it is bit for bit the
// R·diag(s²)·Rᵀ of the identity rotation, which the map's Gaussians once
// carried (TestCov3IsotropicBitwise).
func IsotropicCov(s float64) vecmath.Mat3 {
	s2 := s * s
	return vecmath.Diag3(vecmath.Vec3{X: s2, Y: s2, Z: s2})
}

// Cloud is the growable set of Gaussians representing the scene. IDs are
// positions in the backing slice, and every slot holds a live Gaussian: Add
// appends and nothing removes, so a Gaussian's ID is its position for the
// whole stream, and the map's owner keys its per-Gaussian rows (the skip set
// and the optimizer moments) by it.
type Cloud struct {
	Gaussians []Gaussian
}

// NewCloud returns an empty cloud with capacity hint n.
func NewCloud(n int) *Cloud {
	return &Cloud{Gaussians: make([]Gaussian, 0, n)}
}

// Len returns the number of Gaussians.
func (c *Cloud) Len() int { return len(c.Gaussians) }

// NumActive returns Len: every Gaussian in the cloud is live.
func (c *Cloud) NumActive() int { return len(c.Gaussians) }

// Add appends a Gaussian and returns its ID.
func (c *Cloud) Add(g Gaussian) int {
	c.Gaussians = append(c.Gaussians, g)
	return len(c.Gaussians) - 1
}

// At returns a pointer to the Gaussian with the given ID.
func (c *Cloud) At(id int) *Gaussian { return &c.Gaussians[id] }

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	return &Cloud{Gaussians: slices.Clone(c.Gaussians)}
}

// SetAll replaces the cloud's contents (snapshot restore). The slice is
// adopted, not copied.
func (c *Cloud) SetAll(gaussians []Gaussian) { c.Gaussians = gaussians }

// Validate checks that every parameter is finite. mapper.ImportState calls it
// on every restored cloud, which may have come from outside the process.
func (c *Cloud) Validate() error {
	for i := range c.Gaussians {
		g := &c.Gaussians[i]
		if !g.Mean.IsFinite() || math.IsNaN(g.LogScale) || math.IsInf(g.LogScale, 0) || !g.Color.IsFinite() {
			return fmt.Errorf("gauss: non-finite parameters at id %d", i)
		}
		if math.IsNaN(g.Logit) || math.IsInf(g.Logit, 0) {
			return fmt.Errorf("gauss: non-finite logit at id %d", i)
		}
	}
	return nil
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// SigmoidGrad returns d(sigmoid)/dx expressed via the output value s.
func SigmoidGrad(s float64) float64 { return s * (1 - s) }
