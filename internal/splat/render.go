package splat

import (
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
}

// Render runs the full forward pipeline (steps 1-3 of Fig. 2) for the cloud
// viewed through cam. It is the one-shot entry point: the returned Result
// lives in a fresh context nobody else holds, so it is the caller's outright.
// Hot loops that render every iteration should hold a RenderContext and call
// its Render or Train instead.
func Render(cloud *gauss.Cloud, cam camera.Camera, opts Options) *Result {
	return NewRenderContext().Render(cloud, cam, opts)
}

// Render runs the forward pipeline into the context's buffers: Train's pass
// with no target. The returned Result aliases the context and is valid until
// its next Render or Train call (Backward reads it but never writes it); see
// the package doc for the full aliasing rules.
//
//ags:hotpath
func (ctx *RenderContext) Render(cloud *gauss.Cloud, cam camera.Camera, opts Options) *Result {
	res, _ := ctx.Train(cloud, cam, opts, nil, LossConfig{}, BackwardOptions{})
	return res
}

// Train runs one training iteration's splatting (steps 1-4 of Fig. 2) into
// the context's buffers: the forward pipeline, whose tile pass
// back-propagates each pixel against target right after rendering it, so the
// loss and its gradients come out of the same pass as the Result. The Result
// is byte-identical to Render's, and the Grads to Backward's on that Result.
// Both alias the context: the Result is valid until its next Render or
// Train call, the Grads until its next Train or Backward call. A nil target
// renders only, and the Grads is nil.
//
//ags:hotpath
func (ctx *RenderContext) Train(cloud *gauss.Cloud, cam camera.Camera, opts Options,
	target *frame.Frame, loss LossConfig, bopts BackwardOptions) (*Result, *Grads) {
	ctx.project(cloud, cam, opts.Skip)
	buildTilesInto(&ctx.tiles, &ctx.tileCursor, &ctx.depthKeys, ctx.splats, cam.Intr)
	return ctx.renderTiles(cloud, cam, opts, target, loss, bopts)
}

// renderTiles runs step 3 of Fig. 2, and step 4 with a target, over the
// context's prepared splats and tiles: a tile pass, handed out from the
// pass's cursor (runPass) to the caller and the crew's helper. Pixel buffers
// are disjoint across tiles, the float reductions that cross a tile (the
// loss and gradients) are per-tile partials merged in tile order, and the
// rest are integers (exact under any association): the contribution log,
// added to tile by tile, and the op and masked-pixel counters, merged in slot
// order. So the Result and Grads are byte-identical whoever took which tile.
//
//ags:hotpath
func (ctx *RenderContext) renderTiles(cloud *gauss.Cloud, cam camera.Camera, opts Options,
	target *frame.Frame, loss LossConfig, bopts BackwardOptions) (*Result, *Grads) {
	w, h := cam.Intr.W, cam.Intr.H
	// The three assigned pixel planes and the two per-pixel counters are fully
	// overwritten by a dense pass (every pixel belongs to exactly one tile),
	// so they are resized without clearing; a sparse pass empties them first
	// and overwrites its lattice. The accumulated counters are re-zeroed.
	ctx.color = frame.Image{W: w, H: h, Pix: resized(ctx.color.Pix, w*h)}
	ctx.depth = frame.DepthMap{W: w, H: h, D: resized(ctx.depth.D, w*h)}
	res := &ctx.result
	res.Color = &ctx.color
	res.Depth = &ctx.depth
	res.Silhouette = resized(res.Silhouette, w*h)
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

	tp := tilePass{res: res, write: true}
	var grads *Grads
	if target != nil {
		grads = ctx.startGrads(cloud.Len(), res.Tiles, bopts)
		tp.target, tp.loss, tp.opts, tp.viewRT = target, loss, bopts, cam.Pose.R.Mat3().Transpose()
	}
	ctx.runTiles(tp)
	for i := range ctx.slots {
		res.AlphaOps += ctx.slots[i].alphaOps
		res.BlendOps += ctx.slots[i].blendOps
	}
	if target != nil {
		ctx.finishGrads(res, bopts.GaussianGrads)
	}
	return res, grads
}

// tilePass is a tile pass's inputs, which every participant reads: the
// Result whose tiles it walks and, for a pass that trains, the target, the
// loss and the gradients to compute. Render and Train write the Result they
// walk (write); Backward's re-walk of a finished Result only reads it.
type tilePass struct {
	res    *Result
	write  bool
	target *frame.Frame // nil: the pass renders only
	loss   LossConfig
	opts   BackwardOptions
	viewRT vecmath.Mat3 // the camera's rotation transposed: camera-space gradients into the world frame
}

// runTiles runs the tile pass tp over its Result's tiles.
//
//ags:hotpath
func (ctx *RenderContext) runTiles(tp tilePass) {
	ctx.pass.tile = tp
	ctx.runPass(tp.res.Tiles.NumTiles())
	ctx.pass.tile = tilePass{} // a context keeps no caller's Result or frame alive
}

// renderTile runs one tile of the pass in the slot's scratch and then, for a
// logged pass, adds the tile's entries to the contribution log under the
// pass's lock: the counts are integers, exact whatever order the tiles
// arrive in.
//
//ags:hotpath
func (ctx *RenderContext) renderTile(sl *slot, tileIdx int) {
	tp := &ctx.pass.tile
	trainOneTile(tp, tileIdx, sl, &ctx.arena)
	if tp.write && tp.res.NonContrib != nil {
		ctx.pass.mu.Lock()
		tp.res.addContributions(tileIdx, sl.cull.ent)
		ctx.pass.mu.Unlock()
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

// trainOneTile alpha-blends one tile's pixels (its lattice pixels in a
// sparse pass) front-to-back with early termination — the innermost kernel,
// forward and backward. It evaluates a table entry only at the pixels of its
// cull box, and the exponential only within its cutoff (see cullBox), and
// reconstructs the modelled workload counters, which count table visits
// rather than host evaluations, from the loop index: a pixel visits every
// entry up to and including the one that terminated it, and every entry of
// the table is touched at every rendered pixel of the tile. Each pixel's
// blends go into the slot's steps; a pass that trains then takes the
// pixel's loss, if the mask keeps it, and walks its steps back to front into
// the tile's partials in the arena (backPixel). A pass that writes the
// Result stores each pixel and its counters there, and a logged one leaves
// each entry's blend count in the cull scratch; Backward's pass writes
// neither. The slot counts the pass's ops and masked pixels.
//
//ags:hotpath
func trainOneTile(tp *tilePass, tileIdx int, sl *slot, ar *backwardArena) {
	res := tp.res
	w, h := res.Color.W, res.Color.H
	logged := tp.write && res.NonContrib != nil
	train := tp.target != nil
	lossOnly := !tp.opts.GaussianGrads && !tp.opts.PoseGrads

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

	ent := resized(sl.cull.ent, len(list))
	for li, si := range list {
		cullBox(&ent[li], &splats[si], x0, y0, x1, y1)
	}
	sl.cull.ent = ent

	var part tileGrads
	if train && tp.opts.GaussianGrads {
		lo, hi := tiles.Offsets[tileIdx], tiles.Offsets[tileIdx+1]
		part.mean, part.color = ar.mean[lo:hi], ar.color[lo:hi]
		part.logit, part.logScale = ar.logit[lo:hi], ar.logScale[lo:hi]
	}
	var alphaOps, blendOps int64
	pixels := 0
	row, steps := sl.cull.row, sl.steps
	for y := y0; y < y1; y += step {
		row = row[:0]
		for li := range ent {
			if e := &ent[li]; int32(y) >= e.y0 && int32(y) < e.y1 {
				row = append(row, rowSpan{li: int32(li), x0: e.x0, x1: e.x1})
			}
		}
		// A pixel blends each entry of its row at most once, so the pixel
		// loop below writes the steps by index without growing them.
		steps = resized(steps, len(row))
		py := float64(y) + 0.5
		for x := x0; x < x1; x += step {
			px := float64(x) + 0.5
			t := 1.0
			var color vecmath.Vec3
			var depth, sil float64
			visited := len(list)
			n := 0
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
				st := &steps[n]
				st.li, st.g, st.alpha, st.t = sp.li, g, alpha, t
				n++
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
			alphaOps += int64(visited)
			blendOps += int64(n)
			pix := y*w + x
			if tp.write {
				res.PerPixelAlpha[pix] = int32(visited)
				res.PerPixelBlend[pix] = int32(n)
				res.Color.Pix[pix] = color
				res.Depth.D[pix] = depth
				res.Silhouette[pix] = sil
			}
			// The mask keeps a pixel whose silhouette exceeds the threshold,
			// so a NaN silhouette, which only a non-finite splat makes, is
			// in neither the loss nor Pixels.
			if !train || tp.loss.UseSilhouetteMask && !(sil > tp.loss.SilThreshold) {
				continue
			}
			pixels++
			dLdC, dLdD, dLdS := pixelLoss(color, depth, sil, tp.target, x, y, pix, &part.loss)
			if !lossOnly {
				backPixel(steps[:n], list, splats, px, py, dLdC, dLdD, dLdS, tp, &part)
			}
		}
	}
	sl.cull.row, sl.steps = row, steps
	sl.alphaOps += alphaOps
	sl.blendOps += blendOps
	sl.pixels += pixels
	if train {
		ar.lossByTile[tileIdx], ar.poseByTile[tileIdx] = part.loss, part.pose
	}
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
// silhouette 0, and no table visits or blends. A sparse
// pass starts from it, so its off-lattice pixels hold nothing a previous
// render of the context left there.
//
//ags:hotpath
func (r *Result) empty() {
	clear(r.Color.Pix)
	clear(r.Depth.D)
	clear(r.Silhouette)
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
