// Package platform turns SLAM operation traces into per-frame execution time
// and energy on each evaluated platform: the AGS accelerator (Edge and Server
// variants, §5/§6.1), the A100 and Jetson AGX Xavier GPUs, and the GSCore
// render accelerator paired with a GPU. All platforms consume the same
// trace.Run, mirroring the paper's trace-driven methodology. Absolute times
// are analytic-model estimates; the experiments report ratios.
package platform

import (
	"ags/internal/hw/trace"
)

// Op-cost constants shared by all platforms (FLOPs or FLOP-equivalents per
// traced operation). These come from counting the arithmetic in the
// corresponding kernels of the Go renderer.
const (
	flopsAlpha     = 35  // 2x2 quadratic form + exp
	flopsBlend     = 12  // color/depth/silhouette MACs + transmittance
	flopsBackward  = 30  // suffix-sum gradient step
	flopsPreproc   = 120 // EWA projection, covariance, inversion
	flopsSortEntry = 8   // bitonic-merge compare/exchange equivalents
	flopsSAD       = 3   // abs-diff + accumulate + compare
	flopsMAC       = 2

	gaussFeatureBytes = 48 // 12 fp32: mean, scale, rotation-lite, color, opacity
	pixelBytes        = 16 // color+depth target read per pixel per iteration
)

// Breakdown is the per-frame cost split on one platform.
type Breakdown struct {
	CodecNs  float64 // frame-covisibility detection (ME + accumulate)
	CoarseNs float64 // coarse pose estimation (backbone)
	TrackNs  float64 // 3DGS tracking iterations
	MapNs    float64 // mapping iterations (+ table traffic)
	TotalNs  float64 // after the platform's overlap rules
	EnergyJ  float64
	Bytes    int64
}

// Platform models one execution target.
type Platform interface {
	Name() string
	Frame(f *trace.FrameTrace) Breakdown
}

// RunTotal sums a platform's cost over a whole trace.
//
// What the total means depends on what the trace carries (trace.RenderStats).
// A trace from an offline venue (slam.New, slam.Run, Server.Run: every
// experiment and the benchmark's sim_ms_per_frame) has the
// representative-iteration detail, and the AGS model replays it: per-pixel GPE
// cycles with their imbalance, and the logging/skipping table traffic. A
// slam.Restore trace has it from the restore's first new frame on; the frames
// before came back through a snapshot as scalars, so a caller that wants a
// replay models only the frames after the restore (as ags-slam -resume does).
// The trace of a serving session (Server.Open, RestoreSession: what
// Session.Close and a fleet stream return) has scalars only. On it the AGS
// model charges the splatting arrays at perfect utilisation from the op
// counts and no table traffic, so the scheduler makes no difference, and
// GPU.WithAGSAlgorithm charges no contribution-table bytes: an optimistic
// bound on the replay, not the replay. The plain GPU and GSCore models read
// scalars only and return the same total for both.
func RunTotal(p Platform, run *trace.Run) Breakdown {
	var tot Breakdown
	for i := range run.Frames {
		b := p.Frame(&run.Frames[i])
		tot.CodecNs += b.CodecNs
		tot.CoarseNs += b.CoarseNs
		tot.TrackNs += b.TrackNs
		tot.MapNs += b.MapNs
		tot.TotalNs += b.TotalNs
		tot.EnergyJ += b.EnergyJ
		tot.Bytes += b.Bytes
	}
	return tot
}

// Speedup returns a.TotalNs / b.TotalNs — how much faster platform b is than
// platform a on the same (or corresponding) work.
func Speedup(base, fast Breakdown) float64 {
	if fast.TotalNs == 0 {
		return 0
	}
	return base.TotalNs / fast.TotalNs
}

// splatFlops returns the arithmetic of one task's splatting work.
func splatFlops(s *trace.RenderStats) float64 {
	return float64(s.AlphaOps)*flopsAlpha +
		float64(s.BlendOps)*flopsBlend +
		float64(s.BackwardOps)*flopsBackward +
		float64(s.Splats)*flopsPreproc +
		float64(s.TileEntries)*flopsSortEntry
}

// splatBytes returns the DRAM traffic of one task's splatting work.
func splatBytes(s *trace.RenderStats) int64 {
	return s.Splats*gaussFeatureBytes + s.Pixels*pixelBytes
}
