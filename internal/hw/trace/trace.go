// Package trace defines the operation traces the SLAM run emits and every
// platform model consumes. This mirrors the paper's methodology (§6.1): the
// algorithm runs once, point traces are collected, and the AGS simulator, the
// GPU models and the GSCore model are all driven from the same trace so their
// speedups compare identical work.
package trace

// RenderStats aggregates the splatting work of one task (tracking or
// mapping) on one frame, across all its training iterations, plus one
// representative iteration's detailed workload for the cycle-level models.
type RenderStats struct {
	Iters       int   // training iterations executed
	AlphaOps    int64 // stage-1 alpha evaluations, summed over iterations (forward)
	BlendOps    int64 // stage-2 blend operations, summed over iterations (forward)
	BackwardOps int64 // gradient-pass operations, summed over iterations
	Splats      int64 // Gaussians preprocessed (projection work), summed
	TileEntries int64 // Gaussian-table entries built (sort work), summed
	Pixels      int64 // pixels rendered, summed

	// Representative iteration detail (the last iteration's forward pass):
	RepPerPixelBlend []int32   // stage-2 blend count per pixel
	RepPerPixelAlpha []int32   // stage-1 alpha count per pixel
	RepTileLists     [][]int32 // Gaussian IDs per tile, depth order
	Width, Height    int       // image size for the representative data
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

// FrameTrace is the per-frame record of everything the pipeline did.
type FrameTrace struct {
	Index        int
	Covisibility float64 // FC score vs the reference frame in [0,1]
	IsKeyFrame   bool    // full mapping (vs selective)
	CoarseOnly   bool    // tracking skipped 3DGS refinement

	CodecSADOps int64 // ME absolute-difference ops (free on AGS, charged on GPU)
	CoarseMACs  int64 // backbone MACs for coarse pose estimation

	Track RenderStats // 3DGS tracking refinement work
	Map   RenderStats // mapping work

	NumGaussians     int // active Gaussians when the frame was processed
	SkippedGaussians int // Gaussians suppressed by selective mapping

	// Map-lifecycle accounting: opacity pruning and compaction both run at
	// the end of the frame (after the counts above were recorded).
	PrunedGaussians int   // slots deactivated by this frame's opacity prune
	CompactedSlots  int   // dead slots reclaimed by this frame's compaction
	ReclaimedBytes  int64 // CompactedSlots in bytes (slot parameter footprint)
}

// Run is a complete SLAM execution trace.
type Run struct {
	Sequence      string
	Width, Height int
	Frames        []FrameTrace
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

	PrunedGaussians int
	CompactedSlots  int
	ReclaimedBytes  int64
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
		t.PrunedGaussians += f.PrunedGaussians
		t.CompactedSlots += f.CompactedSlots
		t.ReclaimedBytes += f.ReclaimedBytes
	}
	return t
}
