// Package trace defines the operation traces the SLAM run emits and every
// platform model consumes. This mirrors the paper's methodology (§6.1): the
// algorithm runs once, point traces are collected, and the AGS simulator, the
// GPU models and the GSCore model are all driven from the same trace so their
// speedups compare identical work.
package trace

// RenderStats aggregates the splatting work of one task (tracking or
// mapping) on one frame, across all its training iterations: the scalars. It
// may also carry one representative iteration's detailed workload, the detail
// the cycle-level models replay.
//
// Who produces which is decided by where the pipeline runs, not by an option.
// The offline venues (slam.New, slam.Run and Server.Run, so internal/bench,
// ags-slam and the benchmark's reference runs) keep the detail of every task
// with Iters > 0; slam.Restore keeps it from its first new frame on, because
// a snapshot carries the scalars only. Serving sessions (Server.Open and
// Server.RestoreSession, the only venues a fleet node uses) keep the scalars
// only: at two packed per-pixel planes per task and a tile-list set per
// mapping task per frame the detail is ~30x everything else a frame adds, and
// nothing on the serving path reads it. Result.Digest covers the scalars
// only, so it is equal across both kinds.
type RenderStats struct {
	Iters       int   // training iterations executed
	AlphaOps    int64 // stage-1 alpha evaluations, summed over iterations (forward)
	BlendOps    int64 // stage-2 blend operations, summed over iterations (forward)
	BackwardOps int64 // gradient-pass operations, summed over iterations
	Splats      int64 // Gaussians preprocessed (projection work), summed
	TileEntries int64 // Gaussian-table entries built (sort work), summed
	Pixels      int64 // pixels rendered, summed

	// Representative iteration detail (the last iteration's forward pass);
	// all zero on a scalars-only trace. The planes hold Width*Height counts
	// each, row-major.
	RepPerPixelBlend Packed    // stage-2 blend count per pixel
	RepPerPixelAlpha Packed    // stage-1 alpha count per pixel
	RepTileLists     TileLists // mapping only: Gaussian IDs per tile, depth order
	Width, Height    int       // image size for the representative data
}

// HasDetail reports whether the stats carry the representative iteration's
// per-pixel planes (and, on a mapping task, its tile lists).
func (s *RenderStats) HasDetail() bool {
	return s.RepPerPixelBlend.Len() > 0 && s.RepPerPixelAlpha.Len() > 0
}

// TileLists is one render's per-tile Gaussian tables (the Gaussian IDs each
// tile blends, front to back) in CSR form: tile t's IDs are IDs[Offsets[t]]
// up to IDs[Offsets[t+1]]. The hardware model's GS logging and skipping
// tables replay them. The zero value has no tiles.
type TileLists struct {
	IDs     Packed // every tile's IDs, tile after tile
	Offsets Packed // NumTiles()+1 ascending offsets into IDs, or none
}

// NumTiles returns the number of tiles.
func (l *TileLists) NumTiles() int { return max(l.Offsets.Len()-1, 0) }

// Tile returns the bounds of tile t's IDs: IDs.At(lo) up to IDs.At(hi-1).
func (l *TileLists) Tile(t int) (lo, hi int) {
	return int(l.Offsets.At(t)), int(l.Offsets.At(t + 1))
}

// Accumulate folds one forward+backward iteration's counts into the stats.
func (s *RenderStats) Accumulate(alphaOps, blendOps, backwardOps, splats, tileEntries, pixels int64) {
	s.Iters++
	s.AlphaOps += alphaOps
	s.BlendOps += blendOps
	s.BackwardOps += backwardOps
	s.Splats += splats
	s.TileEntries += tileEntries
	s.Pixels += pixels
}

// FrameTrace is the per-frame record of everything the pipeline decided and
// did: the frame's three decisions (its FC score, key or non-key, coarse-only
// or refined), the work they cost and the map they left.
type FrameTrace struct {
	Covisibility    float64 // FC score vs the previous frame in [0,1]
	KeyCovisibility float64 // FC score vs the last key frame in [0,1]
	IsKeyFrame      bool    // full mapping (vs selective)
	CoarseOnly      bool    // tracking skipped 3DGS refinement

	CodecSADOps int64 // ME absolute-difference ops (free on AGS, charged on GPU)
	CoarseMACs  int64 // backbone MACs for coarse pose estimation

	Track RenderStats // 3DGS tracking refinement work
	Map   RenderStats // mapping work

	NumGaussians     int // Gaussians in the map when the frame was processed
	SkippedGaussians int // Gaussians suppressed by selective mapping

	// FPRate is the skip prediction's false-positive rate at this frame,
	// which a selective mapping tail measures when the run asks for it
	// (slam.Config.EvalFPRate); FPValid says it did.
	FPRate  float64
	FPValid bool
}

// Run is a complete SLAM execution trace.
type Run struct {
	Frames []FrameTrace
}

// Totals sums coarse counters across frames.
type Totals struct {
	Frames        int
	KeyFrames     int
	CoarseOnly    int
	TrackIters    int
	MapIters      int
	AlphaOps      int64
	BlendOps      int64
	BackwardOps   int64
	SADOps        int64
	CoarseMACs    int64
	TileEntries   int64
	SplatsTouched int64

	// PrunedGaussians is 0.
	//
	// Deprecated: nothing removes a Gaussian from the map. It remains only
	// because benchmarks/layers.go reads it, and goes with that read.
	PrunedGaussians int
	// CompactedSlots is 0.
	//
	// Deprecated: the map has no dead slots. It remains only because
	// benchmarks/layers.go reads it, and goes with that read.
	CompactedSlots int
}

// Totals aggregates the run.
func (r *Run) Totals() Totals {
	var t Totals
	t.Frames = len(r.Frames)
	for i := range r.Frames {
		f := &r.Frames[i]
		if f.IsKeyFrame {
			t.KeyFrames++
		}
		if f.CoarseOnly {
			t.CoarseOnly++
		}
		t.TrackIters += f.Track.Iters
		t.MapIters += f.Map.Iters
		t.AlphaOps += f.Track.AlphaOps + f.Map.AlphaOps
		t.BlendOps += f.Track.BlendOps + f.Map.BlendOps
		t.BackwardOps += f.Track.BackwardOps + f.Map.BackwardOps
		t.SADOps += f.CodecSADOps
		t.CoarseMACs += f.CoarseMACs
		t.TileEntries += f.Track.TileEntries + f.Map.TileEntries
		t.SplatsTouched += f.Track.Splats + f.Map.Splats
	}
	return t
}
