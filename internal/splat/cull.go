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

// tileScratch is one render worker's per-tile cull scratch.
type tileScratch struct {
	ent []cullEntry // one per entry of the current tile's table
	row []rowSpan   // entries whose box covers the current pixel row, in table order
}

// cullBox gathers the splat into a cullEntry for the tile [x0,x1)x[y0,y1):
// the pixels and the cutoff qc at which its alpha can reach MinAlpha. Alpha is
// Opacity*exp(-q/2), and Eval returns 0 past q = 12.5, so alpha >= MinAlpha
// needs q <= qc = min(12.5, 2*ln(Opacity/MinAlpha) + 1e-6); the box bounds
// that ellipse with a 1 px margin. Outside the box, and wherever q > qc inside
// it, alpha < MinAlpha holds bit for bit in Splat.Alpha: the 1e-6 slack and
// the margin dwarf the rounding of q, exp and the extents. Whenever that
// argument does not apply — a conic that is not finite and safely
// positive-definite (the determinant guard also rejects conics so
// ill-conditioned that q cancels catastrophically), or a non-finite center or
// opacity — the entry covers the whole tile with qc = +Inf, which disables
// both culls.
//
//ags:hotpath
func cullBox(s *Splat, x0, y0, x1, y1 int) cullEntry {
	mx, my := s.Mean2D.X, s.Mean2D.Y
	e := cullEntry{
		x0: int32(x0), x1: int32(x1), y0: int32(y0), y1: int32(y1),
		qc: math.Inf(1),
		mx: mx, my: my, conA: s.ConA, conB: s.ConB, conC: s.ConC, opacity: s.Opacity,
	}
	det := s.ConA*s.ConC - s.ConB*s.ConB
	qc := min(qCutMax, 2*math.Log(s.Opacity/MinAlpha)+1e-6)
	if !(s.ConA > 0 && s.ConC > 0 && det > 1e-9*s.ConA*s.ConC) ||
		math.IsInf(det, 0) || math.IsNaN(qc) || !finite(mx) || !finite(my) {
		return e
	}
	e.qc = qc
	e.x1, e.y1 = e.x0, e.y0 // empty unless the ellipse reaches the tile
	if qc < 0 {
		return e // Opacity < MinAlpha: the entry never blends
	}
	// Extents of the ellipse d^T Conic d = qc along each axis. Pixel x has
	// center x+0.5; it is kept when |x+0.5-mx| <= ex+1.
	ex := math.Sqrt(qc * s.ConC / det)
	ey := math.Sqrt(qc * s.ConA / det)
	bx0 := max(float64(x0), math.Ceil(mx-ex-1.5))
	bx1 := min(float64(x1), math.Floor(mx+ex+0.5)+1)
	by0 := max(float64(y0), math.Ceil(my-ey-1.5))
	by1 := min(float64(y1), math.Floor(my+ey+0.5)+1)
	if bx0 < bx1 && by0 < by1 {
		e.x0, e.x1, e.y0, e.y1 = int32(bx0), int32(bx1), int32(by0), int32(by1)
	}
	return e
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// blendShard is one forward worker's part of the blend log: for every blended
// (pixel, table entry) of the worker's tiles, in tile, raster and table
// order, the entry's position in its tile's table and the falloff G it was
// blended with. Backward recomputes alpha and transmittance from these in the
// same order instead of re-evaluating the exponentials.
type blendShard struct {
	li []int32
	g  []float64
}

// tileLogRef locates one tile's slice of the blend log. A pixel's run has
// length PerPixelBlend[pix]; runs follow each other in raster order.
type tileLogRef struct {
	shard, off int32
}

// reserve makes room for n more records after the first used ones, growing by
// doubling so a cold context settles in O(log) allocations and a warm one
// holds at most twice the records of its largest render.
//
//ags:hotpath
func (b *blendShard) reserve(used, n int) {
	need := used + n
	if cap(b.li) < need {
		c := max(need, 2*cap(b.li))
		li, g := make([]int32, c), make([]float64, c)
		copy(li, b.li[:used])
		copy(g, b.g[:used])
		b.li, b.g = li, g
	}
	b.li, b.g = b.li[:cap(b.li)], b.g[:cap(b.g)]
}
