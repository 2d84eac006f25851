package splat

import "ags/internal/vecmath"

// backwardArena holds a training pass's (Train's or Backward's)
// partial-reduction buffers: the per-tile loss/pose partials and (for
// Gaussian gradients) the flat per-tile-entry gradient slots addressed
// through the CSR tile offsets. Per-tile partials size these
// O(TotalEntries) per call, which dominates the mapping loop's allocation
// rate at experiment scale, so every RenderContext embeds one arena and
// recycles it across calls (a fresh context pays for a fresh arena on its
// first call). Buffers are re-zeroed on every prepare,
// never lazily — the merge order is what guarantees bitwise determinism, and
// a dirty buffer would break it silently.
type backwardArena struct {
	lossByTile []float64
	poseByTile []vecmath.Twist
	mean       []vecmath.Vec3
	color      []vecmath.Vec3
	logit      []float64
	logScale   []float64
}

// zeroed returns s resized to n with every element cleared, reusing its
// capacity when possible. Like resized it at least doubles a buffer it has to
// re-make (the first allocation is exact): most of these follow the cloud or
// the tile table, which grow a little at every Densify.
//
//ags:hotpath
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

// resized returns s resized to n without clearing it: for buffers every
// element of which is overwritten before being read (the assigned-not-
// accumulated pixel planes).
//
//ags:hotpath
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// prepare zeroes the arena for nt tiles and entries total Gaussian-table
// slots (gradient slots only when gaussian is set), reusing capacity.
func (a *backwardArena) prepare(nt, entries int, gaussian bool) {
	a.lossByTile = zeroed(a.lossByTile, nt)
	a.poseByTile = zeroed(a.poseByTile, nt)
	if gaussian {
		a.mean = zeroed(a.mean, entries)
		a.color = zeroed(a.color, entries)
		a.logit = zeroed(a.logit, entries)
		a.logScale = zeroed(a.logScale, entries)
	}
}
