// Package codec models the motion-estimation (ME) stage of a hardware video
// CODEC (paper §2.3): the current frame is divided into macro-blocks (MBs),
// each matched against a search window in the previous frame by minimizing
// the Sum of Absolute Differences (SAD). AGS repurposes the per-MB minimum
// SADs — accumulated over the frame — as a frame-covisibility metric, so this
// package exposes exactly that intermediate data, plus the motion vectors a
// real encoder would use, and the operation counts the hardware model charges.
//
// MotionEstimate searches the blocks in raster order on the caller's
// goroutine; the overlap the paper's CODEC has with the accelerator comes
// from the slam pipeline, which runs ME beside the previous frame's mapping.
// Every probed candidate's SAD runs over the whole block: AGS reads the
// minima the CODEC computes anyway, so how the encoder searches does not
// change what the FC engine costs.
package codec

import (
	"fmt"
	"slices"

	"ags/internal/frame"
)

// Config selects the ME parameters.
type Config struct {
	// BlockSize is the macro-block edge in pixels (paper example: 8x8).
	BlockSize int
	// SearchRange is the half-width of the search window in pixels.
	SearchRange int
	// ThreeStep selects the logarithmic three-step search a real-time
	// encoder uses instead of exhaustive full search.
	ThreeStep bool
}

// DefaultConfig matches the paper's description: 8x8 macro-blocks with a
// hardware-typical +-8 pixel three-step search.
func DefaultConfig() Config {
	return Config{BlockSize: 8, SearchRange: 8, ThreeStep: true}
}

// MotionVector is the displacement of one macro-block between frames.
type MotionVector struct{ DX, DY int }

// Result holds the ME outputs for one frame pair.
type Result struct {
	Cfg      Config
	MBW, MBH int            // macro-block grid size (includes partial edge blocks)
	MinSAD   []uint32       // per-MB minimum SAD (the AGS covisibility input)
	MV       []MotionVector // per-MB best displacement
	// Pixels is the total pixel count covered by the macro-block grid. Edge
	// blocks are clamped to the frame, so this always equals W*H.
	Pixels int64
	// SADOps counts absolute-difference operations performed — the work the
	// CODEC IP does anyway for compression, which AGS gets for free.
	SADOps int64
}

// SumMinSAD returns the accumulated minimum SAD over all macro-blocks
// (Σ_i SAD_min^i in §4.1). Larger means less covisibility.
func (r *Result) SumMinSAD() uint64 {
	var s uint64
	for _, v := range r.MinSAD {
		s += uint64(v)
	}
	return s
}

// MaxPossibleSAD returns the worst-case accumulated SAD (every pixel differs
// by the full 8-bit range), used to normalize covisibility to [0,1]. Partial
// edge blocks contribute only the pixels they actually cover.
func (r *Result) MaxPossibleSAD() uint64 {
	return uint64(r.Pixels) * 255
}

// MotionEstimate runs ME of cur against prev (the reference frame).
// Both images must have identical dimensions. Frames whose size is not a
// multiple of BlockSize get clamped partial blocks along the right/bottom
// edges, so every pixel participates in the covisibility metric. It is the
// one-shot form of Estimate: it converts both images to luma for this call
// only.
func MotionEstimate(prev, cur *frame.Image, cfg Config) (*Result, error) {
	var seen []uint32
	return Estimate(Plane{W: prev.W, H: prev.H, Y: prev.Luma8()}, Plane{W: cur.W, H: cur.H, Y: cur.Luma8()}, cfg, &seen)
}

// Plane is a W x H image's 8-bit luma (frame.Image.Luma8), what the ME block
// reads.
type Plane struct {
	W, H int
	Y    []uint8
}

// Estimate is MotionEstimate over luma planes, for callers that keep an
// image's plane between comparisons (covis.Detector). *seen is the search's
// probe-dedup scratch: reused when large enough, re-made otherwise, and left
// in *seen for the next call.
func Estimate(prev, cur Plane, cfg Config, seen *[]uint32) (*Result, error) {
	if prev.W != cur.W || prev.H != cur.H {
		return nil, fmt.Errorf("codec: frame size mismatch %dx%d vs %dx%d", prev.W, prev.H, cur.W, cur.H)
	}
	if cfg.BlockSize <= 0 || cfg.SearchRange < 0 {
		return nil, fmt.Errorf("codec: invalid config %+v", cfg)
	}
	w, h := cur.W, cur.H
	bs := cfg.BlockSize
	if w < bs || h < bs {
		return nil, fmt.Errorf("codec: image %dx%d smaller than block %d", w, h, bs)
	}
	mbw := (w + bs - 1) / bs
	mbh := (h + bs - 1) / bs
	res := &Result{
		Cfg: cfg, MBW: mbw, MBH: mbh,
		MinSAD: make([]uint32, mbw*mbh),
		MV:     make([]MotionVector, mbw*mbh),
		Pixels: int64(w) * int64(h),
	}

	st := newBlockSearch(cur.Y, prev.Y, w, h, cfg, seen)
	for by := 0; by < mbh; by++ {
		for bx := 0; bx < mbw; bx++ {
			st.x0, st.y0 = bx*bs, by*bs
			st.bw = min(bs, w-st.x0)
			st.bh = min(bs, h-st.y0)
			i := by*mbw + bx
			if cfg.ThreeStep {
				res.MinSAD[i], res.MV[i] = st.threeStep()
			} else {
				res.MinSAD[i], res.MV[i] = st.fullSearch()
			}
		}
	}
	res.SADOps = st.ops
	return res, nil
}

// blockSearch carries the search state: the frame pair, the current block
// geometry, the SAD operations charged so far, and the probe-dedup scratch
// reused across blocks.
type blockSearch struct {
	cur, ref       []uint8
	w, h           int
	sr             int
	x0, y0, bw, bh int
	ops            int64
	// seen marks (dx,dy) candidates already probed for the current block
	// (generation-stamped so it resets in O(1) per block). The three-step
	// passes overlap — the unit ring can coincide with the coarse ring and
	// the fast-path refinement revisits the origin's neighborhood — and a
	// real encoder IP computes each candidate once, so the op accounting
	// must too.
	seen []uint32
	gen  uint32
}

// newBlockSearch starts a search over the frame pair with *seen as its dedup
// scratch, cleared: its generation stamps start over.
func newBlockSearch(cur, ref []uint8, w, h int, cfg Config, seen *[]uint32) blockSearch {
	side := 2*cfg.SearchRange + 1
	*seen = slices.Grow((*seen)[:0], side*side)[:side*side]
	clear(*seen)
	return blockSearch{
		cur: cur, ref: ref, w: w, h: h,
		sr:   cfg.SearchRange,
		seen: *seen,
	}
}

// sad computes the SAD between the current block and the reference block
// displaced by (dx,dy). Out-of-frame reference pixels are clamped to the
// border (encoder padding behavior). Every pixel of the block is charged.
func (st *blockSearch) sad(dx, dy int) uint32 {
	var acc uint32
	for y := 0; y < st.bh; y++ {
		cy := st.y0 + y
		ry := min(max(cy+dy, 0), st.h-1)
		rowC := cy * st.w
		rowR := ry * st.w
		for x := 0; x < st.bw; x++ {
			cx := st.x0 + x
			rx := min(max(cx+dx, 0), st.w-1)
			c := int32(st.cur[rowC+cx])
			r := int32(st.ref[rowR+rx])
			d := c - r
			if d < 0 {
				d = -d
			}
			acc += uint32(d)
		}
	}
	st.ops += int64(st.bw * st.bh)
	return acc
}

func (st *blockSearch) fullSearch() (uint32, MotionVector) {
	best := ^uint32(0)
	var mv MotionVector
	for dy := -st.sr; dy <= st.sr; dy++ {
		for dx := -st.sr; dx <= st.sr; dx++ {
			s := st.sad(dx, dy)
			if s < best || (s == best && absInt(dx)+absInt(dy) < absInt(mv.DX)+absInt(mv.DY)) {
				best = s
				mv = MotionVector{dx, dy}
			}
		}
	}
	return best, mv
}

// probe evaluates candidate (dx,dy) unless this block already scanned it;
// repeats report fresh=false and charge nothing.
func (st *blockSearch) probe(dx, dy int) (s uint32, fresh bool) {
	side := 2*st.sr + 1
	idx := (dy+st.sr)*side + (dx + st.sr)
	if st.seen[idx] == st.gen {
		return 0, false
	}
	st.seen[idx] = st.gen
	return st.sad(dx, dy), true
}

// threeStep is the New Three-Step Search (NTSS) used by real-time encoders:
// the classical logarithmic pattern, plus a unit-ring probe around the origin
// in the first pass. Streaming video — and SLAM capture in particular — is
// dominated by small motions, where plain TSS's large first step can jump
// into a false SAD basin; NTSS short-circuits to a fine search when the best
// first-pass candidate is adjacent to the origin. Candidates shared between
// passes (the unit ring when the coarse step reaches 1, the fast-path
// refinement around an origin neighbor) are probed and charged exactly once.
func (st *blockSearch) threeStep() (uint32, MotionVector) {
	st.gen++
	cx, cy := 0, 0
	best, _ := st.probe(0, 0)

	scanRing := func(centerX, centerY, step int) (int, int, bool) {
		bx, by := centerX, centerY
		improved := false
		for dy := -step; dy <= step; dy += step {
			for dx := -step; dx <= step; dx += step {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := centerX+dx, centerY+dy
				if absInt(nx) > st.sr || absInt(ny) > st.sr {
					continue
				}
				s, fresh := st.probe(nx, ny)
				if fresh && s < best {
					best = s
					bx, by = nx, ny
					improved = true
				}
			}
		}
		return bx, by, improved
	}

	step := 1
	for step*2 <= st.sr {
		step *= 2
	}
	// First pass: coarse ring and unit ring around the origin.
	coarseX, coarseY, _ := scanRing(0, 0, step)
	fineX, fineY, fineImproved := scanRing(0, 0, 1)
	if fineImproved {
		// The unit ring beat every coarse candidate: small-motion fast path,
		// refine once more around the unit-ring winner and stop.
		cx, cy, _ = scanRing(fineX, fineY, 1)
		return best, MotionVector{cx, cy}
	}
	cx, cy = coarseX, coarseY
	step /= 2
	for step >= 1 {
		cx, cy, _ = scanRing(cx, cy, step)
		step /= 2
	}
	return best, MotionVector{cx, cy}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
