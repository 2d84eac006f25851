package splat

import (
	"math"
	"testing"
)

// ulps returns the distance between a and b in units in the last place of
// b, for positive finite a and b.
func ulps(a, b float64) float64 {
	return math.Abs(a-b) / (math.Nextafter(b, math.Inf(1)) - b)
}

// TestFalloffExponential holds falloff's exponential to what cullGeomOf's
// argument and the blend need: within 4 ulp of math.Exp(-q/2) on a dense
// sweep of [0, 12.5] and at the ends of every table interval, exactly 1 at
// q <= 0 and exactly 0 past 12.5, non-increasing in q along the sweep, and a
// table whose entries are within 1 ulp of math.Exp2(j/64).
func TestFalloffExponential(t *testing.T) {
	for j, bits := range expTab {
		if d := ulps(math.Float64frombits(bits), math.Exp2(float64(j)/64)); d > 1 {
			t.Errorf("expTab[%d] = %v is %v ulp from 2^(%d/64)", j, math.Float64frombits(bits), d, j)
		}
	}
	check := func(q float64) float64 {
		g, want := falloff(q), math.Exp(-0.5*q)
		if d := ulps(g, want); !(d <= 4) {
			t.Fatalf("falloff(%v) = %v, exp gives %v: %v ulp", q, g, want, d)
		}
		return g
	}
	const n = 1 << 21
	prev := 1.0
	for i := 0; i <= n; i++ {
		q := qCutMax * float64(i) / n
		g := check(q)
		if g > prev {
			t.Fatalf("falloff rises from %v to %v at q = %v", prev, g, q)
		}
		prev = g
	}
	// Where the reduction's k changes, r jumps from one end of its range
	// to the other: check the floats around each such point.
	for k := 0.5; k < 580; k++ {
		q := 2 * k * math.Ln2 / 64
		if q > qCutMax {
			break
		}
		for _, v := range []float64{math.Nextafter(q, 0), q, math.Nextafter(q, 13)} {
			check(v)
		}
	}
	for _, q := range []float64{0, math.Copysign(0, -1), -1e-300, -1, math.Inf(-1)} {
		if g := falloff(q); g != 1 {
			t.Errorf("falloff(%v) = %v, want 1", q, g)
		}
	}
	for _, q := range []float64{math.Nextafter(qCutMax, 13), 13, 1e300, math.Inf(1)} {
		if g := falloff(q); g != 0 {
			t.Errorf("falloff(%v) = %v, want 0", q, g)
		}
	}
	if g := falloff(math.NaN()); !math.IsNaN(g) {
		t.Errorf("falloff(NaN) = %v, want NaN", g)
	}
}
