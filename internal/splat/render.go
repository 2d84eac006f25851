package splat

import (
	"sync"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/vecmath"
)

// Options controls a render pass.
type Options struct {
	// Skip suppresses Gaussians by ID during preprocessing (selective
	// mapping for non-key frames).
	Skip []bool
	// LogContribution records, per Gaussian ID, how many pixels of its tiles
	// it did not blend at (full mapping on key frames). A Gaussian contributes
	// at a pixel exactly when it blends there, at alpha >= MinAlpha: the
	// paper's Thresh_alpha is the cutoff 3DGS blends with.
	LogContribution bool
	// Deprecated: ignored: a pass's participants are its caller and the
	// attached crew's helper. It remains only because benchmarks/layers.go
	// assigns it, and goes with that assignment.
	Workers int
	// Sparse renders the tracking lattice only: one pixel per
	// LatticeStride x LatticeStride block, the one at even x and y. Each
	// lattice pixel is bit-identical to the dense render's; every other
	// pixel is written empty (see the package doc).
	Sparse bool
}

// Result is the output of a forward render.
type Result struct {
	Color      *frame.Image
	Depth      *frame.DepthMap
	Silhouette []float64 // accumulated alpha per pixel in [0,1]
	FinalT     []float64 // final transmittance per pixel
	Sparse     bool      // rendered the tracking lattice only (Options.Sparse)

	Splats []Splat
	Tiles  *Tiles

	// Contribution log (nil unless Options.LogContribution):
	NonContrib []int32 // per Gaussian ID: pixels where it did not blend
	Touched    []int32 // per Gaussian ID: pixels where alpha was evaluated

	// Workload trace for the hardware simulator:
	PerPixelBlend []int32 // stage-2 blending operations per pixel
	PerPixelAlpha []int32 // stage-1 table visits per pixel
	AlphaOps      int64   // total alpha (stage-1) table visits
	BlendOps      int64   // total color-blend (stage-2) operations

	// Blend log for Backward (see the package doc): every blend of the
	// pass, one run per tile row, and where each run starts, TileSize slots
	// per tile.
	log     blendLog
	logRows []int32
}

// Render runs the full forward pipeline (steps 1-3 of Fig. 2) for the cloud
// viewed through cam. It is the one-shot entry point: the returned Result
// lives in a fresh context nobody else holds, so it is the caller's outright.
// Hot loops that render every iteration should hold a RenderContext and call
// its Render instead.
func Render(cloud *gauss.Cloud, cam camera.Camera, opts Options) *Result {
	return NewRenderContext().Render(cloud, cam, opts)
}

// Render runs the forward pipeline into the context's buffers. The returned
// Result aliases the context and is valid until its next Render call
// (Backward reads it but never writes it); see the package doc for the
// full aliasing rules.
//
//ags:hotpath
func (ctx *RenderContext) Render(cloud *gauss.Cloud, cam camera.Camera, opts Options) *Result {
	ctx.project(cloud, cam, opts.Skip)
	buildTilesInto(&ctx.tiles, &ctx.tileCursor, &ctx.depthKeys, ctx.splats, cam.Intr)
	return ctx.renderTiles(cloud, cam, opts)
}

// renderTiles runs step 3 of Fig. 2 over the context's prepared splats and
// tiles: a tile pass, handed out from the pass's cursor (runPass) to the
// caller and the crew's helper. Pixel buffers are disjoint across tiles,
// each tile row's blends join the log as one run, and the cross-tile
// reductions are integers (exact under any association):
// the contribution log, added to tile by tile, and the op counters, merged
// in slot order. So every Result is byte-identical whoever rendered which
// tile.
//
//ags:hotpath
func (ctx *RenderContext) renderTiles(cloud *gauss.Cloud, cam camera.Camera, opts Options) *Result {
	w, h := cam.Intr.W, cam.Intr.H
	// The four assigned pixel planes and the two per-pixel counters are fully
	// overwritten by a dense pass (every pixel belongs to exactly one tile),
	// so they are resized without clearing; a sparse pass empties them first
	// and overwrites its lattice. The accumulated counters are re-zeroed.
	ctx.color = frame.Image{W: w, H: h, Pix: resized(ctx.color.Pix, w*h)}
	ctx.depth = frame.DepthMap{W: w, H: h, D: resized(ctx.depth.D, w*h)}
	res := &ctx.result
	res.Color = &ctx.color
	res.Depth = &ctx.depth
	res.Silhouette = resized(res.Silhouette, w*h)
	res.FinalT = resized(res.FinalT, w*h)
	res.Splats = ctx.splats
	res.Tiles = &ctx.tiles
	res.PerPixelBlend = resized(res.PerPixelBlend, w*h)
	res.PerPixelAlpha = resized(res.PerPixelAlpha, w*h)
	res.AlphaOps, res.BlendOps = 0, 0
	res.NonContrib, res.Touched = nil, nil
	if res.Sparse = opts.Sparse; res.Sparse {
		res.empty()
	}
	if opts.LogContribution {
		ctx.nonContrib = zeroed(ctx.nonContrib, cloud.Len())
		ctx.touched = zeroed(ctx.touched, cloud.Len())
		res.NonContrib, res.Touched = ctx.nonContrib, ctx.touched
	}

	nt := ctx.tiles.NumTiles()
	res.logRows = resized(res.logRows, nt*TileSize)
	res.log.li, res.log.g = res.log.li[:0], res.log.g[:0]
	ctx.pass.kind = kindRender
	ctx.runPass(nt)
	for i := range ctx.slots {
		res.AlphaOps += ctx.slots[i].alphaOps
		res.BlendOps += ctx.slots[i].blendOps
	}
	return res
}

// renderTile renders one tile in the slot's scratch, appending each row's
// blends to the Result's log as one run, and then adds its entries' counts to
// the contribution log, both under the pass's lock. Both are exact whatever
// order the rows arrive in: Backward finds a run by its offset, and the
// counts are integers.
//
//ags:hotpath
func (ctx *RenderContext) renderTile(sl *slot, tileIdx int) {
	res := &ctx.result
	p := &ctx.pass
	a, b := renderOneTile(res, tileIdx, &sl.cull, &sl.stage, &p.mu)
	sl.alphaOps += a
	sl.blendOps += b
	if res.NonContrib != nil {
		p.mu.Lock()
		res.addContributions(tileIdx, sl.cull.ent)
		p.mu.Unlock()
	}
}

// addContributions adds one rendered tile to the contribution log. Every
// entry is touched at every rendered pixel of the tile; entries a pixel never
// evaluated — culled, or past its early-termination point — contributed
// nothing there. The hardware gets this for free (the loop index at
// termination); it is where the bulk of Fig. 5's non-contributory Gaussians
// come from.
//
//ags:hotpath
func (r *Result) addContributions(tileIdx int, ent []cullEntry) {
	tiles, step := r.Tiles, r.stride()
	x0, y0 := tileIdx%tiles.TW*TileSize, tileIdx/tiles.TW*TileSize
	x1, y1 := min(x0+TileSize, r.Color.W), min(y0+TileSize, r.Color.H)
	tilePixels := int32(ceilDiv(x1-x0, step) * ceilDiv(y1-y0, step))
	for li, si := range tiles.ListAt(tileIdx) {
		id := r.Splats[si].ID
		r.Touched[id] += tilePixels
		r.NonContrib[id] += tilePixels - ent[li].contrib
	}
}

// renderOneTile alpha-blends one tile's pixels (its lattice pixels in a
// sparse pass) front-to-back with early termination — the innermost forward
// kernel. It evaluates a table entry only at the pixels of its cull box, and
// the exponential only within its cutoff (see cullBox), and reconstructs the
// modelled workload counters, which count table visits rather than host
// evaluations, from the loop index: a pixel visits every entry up to and
// including the one that terminated it, and every entry of the table is
// touched at every rendered pixel of the tile. Each row's blends are
// recorded in stage and then join the Result's log as one run, under mu; a
// logged pass leaves each entry's blend count in the cull scratch.
//
//ags:hotpath
func renderOneTile(res *Result, tileIdx int, sc *tileScratch, stage *blendLog, mu *sync.Mutex) (alphaOps, blendOps int64) {
	w, h := res.Color.W, res.Color.H
	logged := res.NonContrib != nil

	splats, tiles := res.Splats, res.Tiles
	tx := tileIdx % tiles.TW
	ty := tileIdx / tiles.TW
	list := tiles.ListAt(tileIdx)
	x0, y0 := tx*TileSize, ty*TileSize
	x1 := min(x0+TileSize, w)
	y1 := min(y0+TileSize, h)
	// Tiles start at multiples of TileSize, so stepping from the tile's
	// corner visits exactly the lattice pixels.
	step := res.stride()

	ent := resized(sc.ent, len(list))
	for li, si := range list {
		cullBox(&ent[li], &splats[si], x0, y0, x1, y1)
	}
	sc.ent = ent

	row := sc.row
	for y := y0; y < y1; y += step {
		row = row[:0]
		// A pixel blends each entry of its row at most once, and only inside
		// the entry's columns, so the pixel loop below writes the stage by
		// index without growing it.
		bound := 0
		for li := range ent {
			if e := &ent[li]; int32(y) >= e.y0 && int32(y) < e.y1 {
				row = append(row, rowSpan{li: int32(li), x0: e.x0, x1: e.x1})
				bound += int(e.x1 - e.x0)
			}
		}
		stage.reserve(bound)
		pos := 0
		py := float64(y) + 0.5
		for x := x0; x < x1; x += step {
			px := float64(x) + 0.5
			t := 1.0
			var color vecmath.Vec3
			var depth, sil float64
			visited := len(list)
			pixStart := pos
			for _, sp := range row {
				if int32(x) < sp.x0 || int32(x) >= sp.x1 {
					continue
				}
				// Splat.Alpha on the gathered fields, cut short at qc.
				e := &ent[sp.li]
				dx := px - e.mx
				dy := py - e.my
				q := dx*(e.conA*dx+e.conB*dy) + dy*(e.conB*dx+e.conC*dy)
				if q > e.qc {
					continue
				}
				g := falloff(q)
				alpha := clampAlpha(e.opacity, g)
				if alpha < MinAlpha {
					continue
				}
				if logged {
					e.contrib++
				}
				stage.li[pos], stage.g[pos] = sp.li, g
				pos++
				s := &splats[list[sp.li]]
				wgt := t * alpha
				color = color.Add(s.Color.Scale(wgt))
				depth += wgt * s.Depth
				sil += wgt
				t *= 1 - alpha
				if t < TransmittanceEps {
					visited = int(sp.li) + 1
					break
				}
			}
			pix := y*w + x
			res.PerPixelAlpha[pix] = int32(visited)
			res.PerPixelBlend[pix] = int32(pos - pixStart)
			alphaOps += int64(visited)
			res.Color.Pix[pix] = color
			res.Depth.D[pix] = depth
			res.Silhouette[pix] = sil
			res.FinalT[pix] = t
		}
		res.logRows[tileIdx*TileSize+y-y0] = res.log.add(stage, pos, mu)
		blendOps += int64(pos)
	}
	sc.row = row
	return alphaOps, blendOps
}

// stride returns the pixel step of the pass that produced r: 1 for a dense
// render, LatticeStride for a sparse one.
func (r *Result) stride() int {
	if r.Sparse {
		return LatticeStride
	}
	return 1
}

// Pixels returns the number of pixels the pass rendered: every pixel of a
// dense render, the lattice of a sparse one.
func (r *Result) Pixels() int {
	step := r.stride()
	return ceilDiv(r.Color.W, step) * ceilDiv(r.Color.H, step)
}

// empty writes every pixel as one no Gaussian reached: colour, depth and
// silhouette 0, transmittance 1, and no table visits or blends. A sparse
// pass starts from it, so its off-lattice pixels hold nothing a previous
// render of the context left there.
//
//ags:hotpath
func (r *Result) empty() {
	clear(r.Color.Pix)
	clear(r.Depth.D)
	clear(r.Silhouette)
	for i := range r.FinalT {
		r.FinalT[i] = 1
	}
	clear(r.PerPixelBlend)
	clear(r.PerPixelAlpha)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PackDetail records the render as a trace's representative iteration: its
// two per-pixel planes and, with lists, its per-tile Gaussian-ID lists, each
// packed (trace.Packed) in one allocation. The stats alias nothing of the
// Result, so they outlive a RenderContext's next render.
func (r *Result) PackDetail(s *trace.RenderStats, lists bool) {
	s.RepPerPixelBlend = trace.Pack(r.PerPixelBlend)
	s.RepPerPixelAlpha = trace.Pack(r.PerPixelAlpha)
	if lists {
		s.RepTileLists = r.TileIDLists()
	}
	s.Width, s.Height = r.Color.W, r.Color.H
}

// TileIDLists converts the per-tile splat-index tables into stable
// Gaussian-ID lists (the paper's "Gaussian tables", which the hardware
// model's logging/skipping tables replay), packed straight from the tables'
// CSR layout: one allocation for the IDs and one for the offsets.
func (r *Result) TileIDLists() trace.TileLists {
	entries := r.Tiles.Entries
	return trace.TileLists{
		IDs:     trace.PackFunc(len(entries), func(i int) int32 { return int32(r.Splats[entries[i]].ID) }),
		Offsets: trace.Pack(r.Tiles.Offsets),
	}
}

// NormalizedDepth returns the rendered depth divided by the silhouette
// (expected depth rather than alpha-weighted depth); pixels with silhouette
// below 1e-6 stay zero (invalid).
func (r *Result) NormalizedDepth() *frame.DepthMap {
	out := frame.NewDepthMap(r.Depth.W, r.Depth.H)
	for i, d := range r.Depth.D {
		if s := r.Silhouette[i]; s > 1e-6 {
			out.D[i] = d / s
		}
	}
	return out
}
