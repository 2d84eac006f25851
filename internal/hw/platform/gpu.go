package platform

import (
	"ags/internal/hw/trace"
)

// GPU is a roofline-plus-launch-overhead model of a CUDA GPU running the
// SplaTAM-style pipeline. Two effects dominate at SLAM frame sizes: per-kernel
// launch overhead (hundreds of small kernels per frame) and low achieved
// efficiency of the irregular splatting kernels.
type GPU struct {
	Model            string
	PeakGFLOPS       float64
	BWGBs            float64
	Efficiency       float64 // achieved fraction of peak on splatting kernels
	KernelOverheadUs float64 // per kernel launch + sync
	KernelsPerIter   int     // preprocess/sort/render/backward/loss/step
	BusyPowerW       float64

	// RunsAGSAlgorithm marks the GPU-AGS configuration of Fig. 18: the AGS
	// algorithm executed on the GPU, which must run ME serially and pay for
	// the contribution-table scatter/gather in global memory.
	RunsAGSAlgorithm bool
}

// A100 returns the server GPU model (§6.1).
func A100() *GPU {
	return &GPU{
		Model:            "A100",
		PeakGFLOPS:       19500,
		BWGBs:            1555,
		Efficiency:       0.06,
		KernelOverheadUs: 10,
		KernelsPerIter:   7,
		BusyPowerW:       60, // utilization-scaled draw of small-kernel SLAM, not TDP
	}
}

// Xavier returns the edge GPU model (Jetson AGX Xavier, §6.1).
func Xavier() *GPU {
	return &GPU{
		Model:            "AGX-Xavier",
		PeakGFLOPS:       1410,
		BWGBs:            137,
		Efficiency:       0.045,
		KernelOverheadUs: 22,
		KernelsPerIter:   7,
		BusyPowerW:       18, // utilization-scaled module power
	}
}

// WithAGSAlgorithm returns a copy configured as the GPU-AGS ablation point.
func (g *GPU) WithAGSAlgorithm() *GPU {
	cp := *g
	cp.RunsAGSAlgorithm = true
	cp.Model += "-AGS"
	return &cp
}

// Name implements Platform.
func (g *GPU) Name() string { return g.Model }

// taskNs is the roofline time of one splatting task plus launch overheads.
func (g *GPU) taskNs(s *trace.RenderStats) (float64, int64) {
	if s.Iters == 0 {
		return 0, 0
	}
	flops := splatFlops(s)
	bytes := splatBytes(s)
	compute := flops / (g.PeakGFLOPS * g.Efficiency) // ns (GFLOPS = flop/ns)
	mem := float64(bytes) / g.BWGBs
	t := compute
	if mem > t {
		t = mem
	}
	t += float64(s.Iters*g.KernelsPerIter) * g.KernelOverheadUs * 1e3
	return t, bytes
}

// Frame implements Platform.
func (g *GPU) Frame(f *trace.FrameTrace) Breakdown {
	var b Breakdown
	if g.RunsAGSAlgorithm {
		// Serial ME on the GPU: the SAD search vectorizes poorly (short
		// dependent loops per block); model at 1% of peak plus a dedicated
		// kernel launch per frame pair.
		if f.CodecSADOps > 0 {
			b.CodecNs = float64(f.CodecSADOps)*flopsSAD/(g.PeakGFLOPS*0.01) +
				2*g.KernelOverheadUs*1e3
		}
		// Coarse backbone (Droid-SLAM-style CNN+ConvGRU): at SLAM frame sizes
		// and batch 1 the small conv layers and sequential GRU steps achieve
		// only a few percent of peak, with a launch per layer per GRU step.
		// This is the main reason Fig. 18's GPU-AGS gains so little.
		if f.CoarseMACs > 0 {
			b.CoarseNs = float64(f.CoarseMACs)*flopsMAC/(g.PeakGFLOPS*0.02) +
				float64(30)*g.KernelOverheadUs*1e3
		}
	}
	trackNs, trackBytes := g.taskNs(&f.Track)
	b.TrackNs = trackNs
	b.Bytes += trackBytes
	mapNs, mapBytes := g.taskNs(&f.Map)
	b.Bytes += mapBytes
	if g.RunsAGSAlgorithm {
		// Contribution-table maintenance in global memory: scattered atomic
		// read-modify-writes achieve a few percent of peak bandwidth.
		perEntry := int64(8)
		if f.IsKeyFrame {
			perEntry = 16 // logging is a read-modify-write of the 8-byte record
		}
		tableBytes := int64(0)
		for _, l := range f.Map.RepTileLists {
			tableBytes += int64(len(l)) * perEntry
		}
		mapNs += float64(tableBytes) / (g.BWGBs * 0.04)
		b.Bytes += tableBytes
	}
	b.MapNs = mapNs
	// GPUs execute the pipeline serially (§6.3: "GPUs ... execute tracking
	// and mapping sequentially").
	b.TotalNs = b.CodecNs + b.CoarseNs + b.TrackNs + b.MapNs
	b.EnergyJ = g.BusyPowerW * b.TotalNs * 1e-9
	return b
}
