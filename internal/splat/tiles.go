package splat

import (
	"math"

	"ags/internal/camera"
)

// Tiles holds the per-tile Gaussian tables (step 2 of Fig. 2) in a flat
// CSR-style layout: Entries is one backing array of splat indices and
// Offsets[i]..Offsets[i+1] bounds tile i's table, sorted front-to-back by
// depth. These tables are exactly what the AGS mapping engine walks, so the
// hardware simulator consumes them unchanged; the flat layout is also what
// lets a RenderContext rebuild them every frame without allocating.
type Tiles struct {
	TW, TH  int     // tile grid size
	Offsets []int32 // len NumTiles()+1; tile i's table is Entries[Offsets[i]:Offsets[i+1]]
	Entries []int32 // concatenated splat-index tables, depth ascending per tile
}

// NumTiles returns the number of tiles in the grid.
func (t *Tiles) NumTiles() int { return t.TW * t.TH }

// ListAt returns the Gaussian table of the tile with flat index idx. The
// capacity is capped at the table's end: the tables share one backing array,
// and an uncapped append from a caller would silently overwrite the next
// tile's entries.
func (t *Tiles) ListAt(idx int) []int32 {
	lo, hi := t.Offsets[idx], t.Offsets[idx+1]
	return t.Entries[lo:hi:hi]
}

// TotalEntries returns the summed length of all Gaussian tables — the
// number of (Gaussian, tile) pairs the renderer will touch.
func (t *Tiles) TotalEntries() int { return len(t.Entries) }

// tileRect returns the clamped tile-coordinate bounding box of the splat, or
// ok=false when its 3-sigma box misses the image entirely. Culling instead of
// clamping matters: a clamped off-screen splat would charge phantom table
// entries (and alpha evaluations) to the workload trace. Render's
// preprocessing already culls these, but the table build does not rely on it.
//
//ags:hotpath
func tileRect(s *Splat, w, h, tw, th int) (x0, x1, y0, y1 int, ok bool) {
	if s.Mean2D.X+s.Radius < 0 || s.Mean2D.Y+s.Radius < 0 ||
		s.Mean2D.X-s.Radius >= float64(w) || s.Mean2D.Y-s.Radius >= float64(h) {
		return 0, 0, 0, 0, false
	}
	x0 = min(max(int((s.Mean2D.X-s.Radius)/TileSize), 0), tw-1)
	x1 = min(max(int((s.Mean2D.X+s.Radius)/TileSize), 0), tw-1)
	y0 = min(max(int((s.Mean2D.Y-s.Radius)/TileSize), 0), th-1)
	y1 = min(max(int((s.Mean2D.Y+s.Radius)/TileSize), 0), th-1)
	return x0, x1, y0, y1, true
}

// depthKey is one splat's place in the front-to-back order: its depth and
// its index in the splat slice, 16 bytes a sort moves instead of the splat.
// The order is by (depth, index): depth ties break toward the lower index,
// so it is strict and total and a pure function of the splat slice.
// buildTilesInto keys a NaN depth as +Inf, so a splat with no defined depth
// sorts behind every finite one, among the +Inf depths by index.
type depthKey struct {
	depth float64
	idx   int32
}

// radixKey maps a depth to 64 bits whose unsigned order is the depth's
// order: the sign bit of a positive depth is set and every bit of a negative
// one flipped, so −Inf maps lowest and +Inf highest. −0 maps as +0, since
// the two are equal depths. A NaN has no place in the order: buildTilesInto
// keys it as +Inf.
//
//ags:hotpath
func radixKey(d float64) uint64 {
	if d == 0 {
		return 1 << 63
	}
	b := math.Float64bits(d)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixBits is the width of one radix digit: a pass of sortDepthKeys places
// the keys into 1<<radixBits buckets.
const radixBits = 8

// sortDepthKeys sorts ks into (depth, index) order with a stable LSD radix
// sort on the depths' radixKey, one radixBits digit a pass, lowest first,
// through tmp (at least as long as ks) as the other buffer. Stability keeps
// the keys of equal depths in the order they came in, which is index order
// when they are built in it, as buildTilesInto builds them. One walk counts
// every digit, and a digit all keys share is no pass: depths of one scene
// share their sign and most of their exponent.
//
//ags:hotpath
func sortDepthKeys(ks, tmp []depthKey) {
	if len(ks) < 2 {
		return
	}
	const digits = 64 / radixBits
	var counts [digits][1 << radixBits]int32
	for _, k := range ks {
		u := radixKey(k.depth)
		for d := range digits {
			counts[d][u>>(d*radixBits)&(1<<radixBits-1)]++
		}
	}
	src, dst := ks, tmp[:len(ks)]
	for d := range digits {
		c := &counts[d]
		shift := d * radixBits
		if c[radixKey(src[0].depth)>>shift&(1<<radixBits-1)] == int32(len(ks)) {
			continue
		}
		var at int32
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, k := range src {
			b := radixKey(k.depth) >> shift & (1<<radixBits - 1)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
}

// buildTilesInto performs the tile intersection test and depth sort: a splat
// is assigned to every tile its 3-sigma bounding box overlaps (the reference
// 3DGS conservative test). It rebuilds t's CSR tables in place with a two-pass
// counting build (count per tile, prefix-sum, fill), reusing t's backing
// arrays and the caller's cursor and key scratch. The splats that reach the
// image are keyed, in index order, as (depth, index) and put in front-to-back
// order by one radix sort (sortDepthKeys), whose other buffer is the key
// scratch's second half, and the fill walks them in that order, so every
// tile's table is born front to back and the table order is a pure function
// of the splat slice.
//
//ags:hotpath
func buildTilesInto(t *Tiles, cursor *[]int32, keys *[]depthKey, splats []Splat, intr camera.Intrinsics) {
	tw := (intr.W + TileSize - 1) / TileSize
	th := (intr.H + TileSize - 1) / TileSize
	nt := tw * th
	t.TW, t.TH = tw, th
	t.Offsets = zeroed(t.Offsets, nt+1)

	// Pass 1: count entries per tile (shifted by one so the prefix sum below
	// turns counts into offsets directly), and key every splat with an entry.
	buf := resized(*keys, 2*len(splats))
	ks := buf[:0:len(splats)]
	for i := range splats {
		s := &splats[i]
		x0, x1, y0, y1, ok := tileRect(s, intr.W, intr.H, tw, th)
		if !ok {
			continue
		}
		for ty := y0; ty <= y1; ty++ {
			for tx := x0; tx <= x1; tx++ {
				t.Offsets[ty*tw+tx+1]++
			}
		}
		d := s.Depth
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		ks = append(ks, depthKey{depth: d, idx: int32(i)})
	}
	*keys = buf[:len(ks)]
	for i := 0; i < nt; i++ {
		t.Offsets[i+1] += t.Offsets[i]
	}
	total := int(t.Offsets[nt])
	if cap(t.Entries) < total {
		t.Entries = make([]int32, total)
	} else {
		t.Entries = t.Entries[:total]
	}
	sortDepthKeys(ks, buf[len(splats):])

	// Pass 2: fill through a per-tile write cursor, front to back.
	cur := zeroed(*cursor, nt)
	copy(cur, t.Offsets[:nt])
	*cursor = cur
	for _, k := range ks {
		x0, x1, y0, y1, _ := tileRect(&splats[k.idx], intr.W, intr.H, tw, th)
		for ty := y0; ty <= y1; ty++ {
			for tx := x0; tx <= x1; tx++ {
				idx := ty*tw + tx
				t.Entries[cur[idx]] = k.idx
				cur[idx]++
			}
		}
	}
}
