package splat

import "math"

// qCutMax is Splat.Eval's hard cutoff: beyond it the falloff is exactly 0.
const qCutMax = 12.5

// cullEntry is one Gaussian-table entry of the tile being rendered, gathered
// in table order so the pixel loop reads one contiguous array instead of
// chasing splats[list[li]]: the clipped, half-open pixel box and the cutoff
// qc outside which the entry provably does not blend, the splat fields alpha
// needs, and the entry's contribution count for the log.
type cullEntry struct {
	x0, x1, y0, y1   int32
	contrib          int32 // pixels the entry blended at
	qc               float64
	mx, my           float64 // Splat.Mean2D
	conA, conB, conC float64
	opacity          float64
}

// rowSpan is one entry of the current pixel row's sub-list: a table position
// and the pixel columns its box covers on this row.
type rowSpan struct {
	li, x0, x1 int32
}

// tileScratch is one participant's per-tile cull scratch.
type tileScratch struct {
	ent []cullEntry // one per entry of the current tile's table
	row []rowSpan   // entries whose box covers the current pixel row, in table order
}

// cullGeom is the part of a splat's cull box that depends on the splat alone:
// the cutoff qc and the extents ex, ey of the ellipse d^T Conic d = qc along
// each axis. Projection computes it once per splat (Splat.derive), and
// cullBox clips it to each tile of the splat's table entries. qc = +Inf
// marks the whole-tile fallback, which leaves ex and ey unused.
type cullGeom struct {
	qc, ex, ey float64
}

// cullGeomOf returns the splat's cull geometry. Alpha is Opacity*exp(-q/2),
// and Eval returns 0 past q = 12.5, so alpha >= MinAlpha needs
// q <= qc = min(12.5, 2*ln(Opacity/MinAlpha) + 1e-6), and cullBox bounds
// that ellipse with a 1 px margin. Outside the box, and wherever q > qc
// inside it, alpha < MinAlpha holds bit for bit in Splat.Alpha: the 1e-6
// slack leaves the falloff at qc a relative 5e-7 below what alpha = MinAlpha
// needs, which the error of falloff's exponential (within 4 ulp of exp,
// TestFalloffExponential) and the rounding of the logarithm do not come near,
// and the 1 px margin dwarfs the rounding of q and the extents. Whenever that
// argument does not apply — a conic that is not finite and safely
// positive-definite (the determinant guard also rejects conics so
// ill-conditioned that q cancels catastrophically), or a non-finite center or
// opacity — qc is +Inf: the entry covers the whole tile, which disables both
// culls.
//
//ags:hotpath
func cullGeomOf(s *Splat) cullGeom {
	g := cullGeom{qc: math.Inf(1)}
	det := s.ConA*s.ConC - s.ConB*s.ConB
	qc := min(qCutMax, 2*math.Log(s.Opacity/MinAlpha)+1e-6)
	if !(s.ConA > 0 && s.ConC > 0 && det > 1e-9*s.ConA*s.ConC) ||
		math.IsInf(det, 0) || math.IsNaN(qc) || !finite(s.Mean2D.X) || !finite(s.Mean2D.Y) {
		return g
	}
	g.qc = qc
	if qc >= 0 {
		g.ex = math.Sqrt(qc * s.ConC / det)
		g.ey = math.Sqrt(qc * s.ConA / det)
	}
	return g
}

// cullBox gathers the splat into e, a cullEntry for the tile
// [x0,x1)x[y0,y1): its cull geometry clipped to the tile, the pixels outside
// which the entry provably does not blend (see cullGeomOf). Pixel x has
// center x+0.5; it is kept when |x+0.5-mx| <= ex+1. It writes e field by
// field: a returned entry, or a composite literal, is built aside and copied
// in, a copy per table entry.
//
//ags:hotpath
func cullBox(e *cullEntry, s *Splat, x0, y0, x1, y1 int) {
	g := &s.cull
	mx, my := s.Mean2D.X, s.Mean2D.Y
	e.x0, e.x1, e.y0, e.y1 = int32(x0), int32(x1), int32(y0), int32(y1)
	e.contrib, e.qc = 0, g.qc
	e.mx, e.my = mx, my
	e.conA, e.conB, e.conC, e.opacity = s.ConA, s.ConB, s.ConC, s.Opacity
	if math.IsInf(g.qc, 1) {
		return // the whole-tile fallback
	}
	e.x1, e.y1 = e.x0, e.y0 // empty unless the ellipse reaches the tile
	if g.qc < 0 {
		return // Opacity < MinAlpha: the entry never blends
	}
	bx0 := max(float64(x0), math.Ceil(mx-g.ex-1.5))
	bx1 := min(float64(x1), math.Floor(mx+g.ex+0.5)+1)
	by0 := max(float64(y0), math.Ceil(my-g.ey-1.5))
	by1 := min(float64(y1), math.Floor(my+g.ey+0.5)+1)
	if bx0 < bx1 && by0 < by1 {
		e.x0, e.x1, e.y0, e.y1 = int32(bx0), int32(bx1), int32(by0), int32(by1)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
