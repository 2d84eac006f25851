// Package gauss defines the 3D Gaussian primitive and the growable cloud of
// Gaussians the SLAM map is made of. Parameters follow SplaTAM's convention:
// RGB color (no spherical harmonics), logit opacity and one log scale. The
// Gaussians are isotropic, so they have no rotation, and every optimizer
// update is unconstrained.
package gauss

import (
	"fmt"
	"math"
	"unsafe"

	"ags/internal/vecmath"
)

// Gaussian is one isotropic 3D Gaussian primitive.
type Gaussian struct {
	Mean     vecmath.Vec3 // world-space center
	LogScale float64      // log standard deviation, the same along every axis
	Color    vecmath.Vec3 // RGB in [0,1] (stored unclamped, clamped at render)
	Logit    float64      // opacity in logit space; Opacity() = sigmoid(Logit)
}

// SlotBytes is the resident size of one cloud slot (the Gaussian parameters
// plus its active flag) — the unit Compact's reclaimed-bytes accounting uses.
const SlotBytes = int(unsafe.Sizeof(Gaussian{})) + 1

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

// Cov3 returns the world-space 3x3 covariance diag(s², s², s²). For every
// finite s² it is bit for bit the R·diag(s²)·Rᵀ of the identity rotation,
// which the map's Gaussians once carried (TestCov3IsotropicBitwise).
func (g *Gaussian) Cov3() vecmath.Mat3 {
	s := g.Scale()
	s2 := s * s
	return vecmath.Diag3(vecmath.Vec3{X: s2, Y: s2, Z: s2})
}

// Cloud is the growable set of Gaussians representing the scene. IDs are
// positions in the backing slices. Pruning marks a slot inactive without
// moving anything, so ID-keyed tables such as the skip set stay valid frame
// to frame; Compact then re-packs the survivors into a dense prefix and
// returns the old→new ID permutation, through which callers rewrite every
// retained ID-keyed table (skip sets, optimizer moments, render traces).
// Between compactions IDs are stable; across a compaction they are stable up
// to that returned remap, and the survivors' relative order is
// preserved — which is what keeps projection, tile build and blending order
// (and therefore every rendered pixel) bit-identical before and after a
// compaction pass.
type Cloud struct {
	Gaussians []Gaussian
	Active    []bool

	// active counts the true entries of Active, maintained by Add/Prune/
	// Compact so NumActive is O(1) on the per-frame path. Callers that flip
	// Active flags directly (none in-tree) would invalidate it — Validate
	// checks the invariant.
	active int
}

// NewCloud returns an empty cloud with capacity hint n.
func NewCloud(n int) *Cloud {
	return &Cloud{
		Gaussians: make([]Gaussian, 0, n),
		Active:    make([]bool, 0, n),
	}
}

// Len returns the total number of slots (active and inactive).
func (c *Cloud) Len() int { return len(c.Gaussians) }

// NumActive returns the number of active Gaussians (O(1): the count is
// maintained by Add, Prune and Compact).
func (c *Cloud) NumActive() int { return c.active }

// NumInactive returns the number of dead slots awaiting compaction.
func (c *Cloud) NumInactive() int { return len(c.Gaussians) - c.active }

// Add appends a Gaussian and returns its stable ID.
func (c *Cloud) Add(g Gaussian) int {
	c.Gaussians = append(c.Gaussians, g)
	c.Active = append(c.Active, true)
	c.active++
	return len(c.Gaussians) - 1
}

// Prune deactivates the Gaussian with the given ID and reports whether this
// call deactivated it. Pruning an already-inactive (or out-of-range) ID is a
// no-op returning false, so repeated prunes of one ID cannot double-count
// against the active total.
func (c *Cloud) Prune(id int) bool {
	if id < 0 || id >= len(c.Active) || !c.Active[id] {
		return false
	}
	c.Active[id] = false
	c.active--
	return true
}

// Compact re-packs the active Gaussians into a dense prefix, truncating the
// dead tail. It returns the old→new ID permutation and the number of slots
// freed: survivors map to [0, NumActive) preserving their relative order, and
// dropped slots map to unique IDs in [NumActive, Len) (ascending by old ID),
// so retained traces that still mention a dead Gaussian keep a distinct,
// in-range ID after rewriting. freed is the number of slots reclaimed;
// freed*SlotBytes approximates the bytes returned to the allocator's reuse
// pool. A fully-active cloud compacts to itself (remap is the identity).
func (c *Cloud) Compact() (remap []int32, freed int) {
	n := len(c.Gaussians)
	remap = make([]int32, n)
	next := int32(0)
	for id := 0; id < n; id++ {
		if c.Active[id] {
			remap[id] = next
			c.Gaussians[next] = c.Gaussians[id]
			next++
		}
	}
	dead := next
	for id := 0; id < n; id++ {
		if !c.Active[id] {
			remap[id] = dead
			dead++
		}
	}
	freed = n - int(next)
	c.Gaussians = c.Gaussians[:next]
	c.Active = c.Active[:next]
	for i := range c.Active {
		c.Active[i] = true
	}
	c.active = int(next)
	return remap, freed
}

// At returns a pointer to the Gaussian with the given ID.
func (c *Cloud) At(id int) *Gaussian { return &c.Gaussians[id] }

// IsActive reports whether the Gaussian with the given ID is active.
func (c *Cloud) IsActive(id int) bool {
	return id >= 0 && id < len(c.Active) && c.Active[id]
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	out := &Cloud{
		Gaussians: make([]Gaussian, len(c.Gaussians)),
		Active:    make([]bool, len(c.Active)),
		active:    c.active,
	}
	copy(out.Gaussians, c.Gaussians)
	copy(out.Active, c.Active)
	return out
}

// SetAll replaces the cloud's contents (snapshot restore). gaussians and
// active must have equal length; the slices are adopted, not copied.
func (c *Cloud) SetAll(gaussians []Gaussian, active []bool) error {
	if len(gaussians) != len(active) {
		return fmt.Errorf("gauss: %d gaussians vs %d active flags", len(gaussians), len(active))
	}
	c.Gaussians = gaussians
	c.Active = active
	c.active = 0
	for _, a := range active {
		if a {
			c.active++
		}
	}
	return nil
}

// Validate checks structural invariants. mapper.ImportState calls it on every
// restored cloud, which may have come from outside the process.
func (c *Cloud) Validate() error {
	if len(c.Gaussians) != len(c.Active) {
		return fmt.Errorf("gauss: %d gaussians vs %d active flags", len(c.Gaussians), len(c.Active))
	}
	n := 0
	for _, a := range c.Active {
		if a {
			n++
		}
	}
	if n != c.active {
		return fmt.Errorf("gauss: active counter %d vs %d true flags", c.active, n)
	}
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
