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
	// Workers bounds render parallelism; 0 means GOMAXPROCS.
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

	// Blend log for Backward (see the package doc): one shard per forward
	// worker, and each tile's location in them.
	logShards []blendShard
	logTiles  []tileLogRef
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
	ctx.splats = preprocessInto(ctx.splats[:0], cloud, cam, opts.Skip)
	buildTilesInto(&ctx.tiles, &ctx.tileCursor, ctx.splats, cam.Intr)
	return ctx.renderTiles(cloud, cam, opts)
}

// renderTiles runs steps 3 of Fig. 2 over the context's prepared splats and
// tiles. Static sharding: each worker owns a contiguous tile range and walks
// it in ascending order. Pixel buffers are disjoint across tiles, and the
// cross-tile reductions (op counters, contribution log) are integers (exact
// under any association) merged in fixed worker order, so every Workers
// value produces byte-identical Results.
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

	ctx.ranges = shardRangesInto(ctx.ranges[:0], ctx.tiles.NumTiles(), opts.Workers)
	ranges := ctx.ranges
	nw := len(ranges)
	res.logTiles = resized(res.logTiles, ctx.tiles.NumTiles())
	res.logShards = extended(res.logShards, nw)
	ctx.cull = extended(ctx.cull, nw)

	if nw == 1 {
		// Serial fast path: accumulate straight into the Result. The
		// reductions are integers, so this is bit-identical to the
		// scratch-and-merge parallel path — and it spawns nothing, keeping
		// warm contexted renders allocation-free.
		res.AlphaOps, res.BlendOps = ctx.renderShard(0, w, h, res.NonContrib, res.Touched)
		return res
	}

	n := cloud.Len()
	var nonContribAll, touchedAll []int32
	if opts.LogContribution {
		ctx.contrib = zeroed(ctx.contrib, 2*nw*n)
		nonContribAll = ctx.contrib[:nw*n]
		touchedAll = ctx.contrib[nw*n:]
	}
	ctx.ops = zeroed(ctx.ops, 2*nw)
	var wg sync.WaitGroup
	for wi := range ranges {
		wg.Add(1)
		//ags:allow(hotalloc, worker closures exist only on the multi-worker path; the Workers=1 path above is the one TestRenderContextAllocationFree measures allocation-free)
		go func(wi int) {
			defer wg.Done()
			var nc, tc []int32
			if opts.LogContribution {
				nc = nonContribAll[wi*n : (wi+1)*n]
				tc = touchedAll[wi*n : (wi+1)*n]
			}
			ctx.ops[2*wi], ctx.ops[2*wi+1] = ctx.renderShard(wi, w, h, nc, tc)
		}(wi)
	}
	wg.Wait()

	// Fixed-order merge (worker 0, 1, ...).
	for wi := 0; wi < nw; wi++ {
		res.AlphaOps += ctx.ops[2*wi]
		res.BlendOps += ctx.ops[2*wi+1]
		if opts.LogContribution {
			for id, v := range nonContribAll[wi*n : (wi+1)*n] {
				res.NonContrib[id] += v
			}
			for id, v := range touchedAll[wi*n : (wi+1)*n] {
				res.Touched[id] += v
			}
		}
	}
	return res
}

// renderShard renders worker wi's contiguous tile span in ascending order,
// appending to the worker's own blend-log shard. The op counters, the cull
// scratch and the shard headers live in locals and are stored once per shard:
// workers' slots are adjacent in memory, and updating them per (pixel, splat)
// through a pointer would false-share cache lines on the hottest writes of
// the pipeline.
//
//ags:hotpath
func (ctx *RenderContext) renderShard(wi, w, h int, nonContrib, touched []int32) (alphaOps, blendOps int64) {
	res := &ctx.result
	sc := ctx.cull[wi]
	log := res.logShards[wi]
	span := ctx.ranges[wi]
	for tileIdx := span[0]; tileIdx < span[1]; tileIdx++ {
		res.logTiles[tileIdx] = tileLogRef{shard: int32(wi), off: int32(blendOps)}
		a, b := renderOneTile(res, tileIdx, w, h, nonContrib, touched, &sc, &log, int(blendOps))
		alphaOps += a
		blendOps += b
	}
	log.li, log.g = log.li[:blendOps], log.g[:blendOps]
	ctx.cull[wi] = sc
	res.logShards[wi] = log
	return alphaOps, blendOps
}

// renderOneTile alpha-blends one tile's pixels (its lattice pixels in a
// sparse pass) front-to-back with early termination — the innermost forward
// kernel. It evaluates a table entry only at the pixels of its cull box, and
// the exponential only within its cutoff (see cullBox), and reconstructs the
// modelled workload counters, which count table visits rather than host
// evaluations, from the loop index: a pixel visits every entry up to and
// including the one that terminated it, and every entry of the table is
// touched at every rendered pixel of the tile. Each blend is recorded at
// log[pos...] for Backward.
//
//ags:hotpath
func renderOneTile(res *Result, tileIdx, w, h int,
	nonContrib, touched []int32, sc *tileScratch, log *blendShard, pos int) (alphaOps, blendOps int64) {

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
		ent[li] = cullBox(&splats[si], x0, y0, x1, y1)
	}
	sc.ent = ent
	start := pos

	row := sc.row
	for y := y0; y < y1; y += step {
		row = row[:0]
		for li := range ent {
			if e := &ent[li]; int32(y) >= e.y0 && int32(y) < e.y1 {
				row = append(row, rowSpan{li: int32(li), x0: e.x0, x1: e.x1})
			}
		}
		// A pixel blends each entry of its row at most once, so the pixel
		// loop below writes the log by index without growing it.
		log.reserve(pos, len(row)*ceilDiv(x1-x0, step))
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
				if nonContrib != nil {
					e.contrib++
				}
				log.li[pos], log.g[pos] = sp.li, g
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
	}
	sc.row = row

	if nonContrib != nil {
		// Every entry is touched at every rendered pixel of the tile; entries
		// a pixel never evaluated — culled, or past its early-termination
		// point — contributed nothing there. The hardware gets this for free
		// (the loop index at termination); it is where the bulk of Fig. 5's
		// non-contributory Gaussians come from.
		tilePixels := int32(ceilDiv(x1-x0, step) * ceilDiv(y1-y0, step))
		for li, si := range list {
			id := splats[si].ID
			touched[id] += tilePixels
			nonContrib[id] += tilePixels - ent[li].contrib
		}
	}
	return alphaOps, int64(pos - start)
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
