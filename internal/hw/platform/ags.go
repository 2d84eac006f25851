package platform

import (
	"ags/internal/hw/dram"
	"ags/internal/hw/engines"
	"ags/internal/hw/gpe"
	"ags/internal/hw/trace"
)

// AGS is the accelerator model (Fig. 10): FC detection engine, pose tracking
// engine (systolic array + light GS array) and mapping engine (GS array +
// logging/skipping tables), with tracking/mapping overlap (Fig. 9).
type AGS struct {
	Variant string
	// Compute resources (§6.1: AGS-Edge 16x(4x4) GPEs + 2x(32x32) systolic;
	// AGS-Server 32x(4x4) + 4x(32x32)).
	MapArrays   int
	LightArrays int
	SystolicPEs int // total systolic multipliers
	FreqMHz     float64
	Mem         dram.Spec
	Tables      engines.TableParams
	Scheduled   bool // GPE scheduler (Fig. 13) enabled
	// Pipelined overlaps frame t+1's FC detection and tracking with frame t's
	// mapping (Fig. 9). slam.System.ProcessFrame runs the schedule this
	// charges: the whole track side (CODEC ME, covisibility, coarse alignment
	// and pose refinement, against a copy of the map frozen before frame t's
	// mapping) beside frame t's mapping tail.
	Pipelined bool
	GPEParams gpe.Params
	// PerIterOverheadCycles charges pipeline drain/refill, buffer loads and
	// engine control per training iteration.
	PerIterOverheadCycles int64
	DynEnergyPJop         float64 // dynamic energy per flop-equivalent
	DRAMEnergyPJB         float64 // DRAM energy per byte
	// SystemPowerW is the always-on accelerator + DRAM subsystem power the
	// energy model charges, a calibration constant (see ROADMAP).
	SystemPowerW float64
}

// AGSEdge returns the edge variant (LPDDR4, 16 mapping arrays).
func AGSEdge() *AGS {
	return &AGS{
		Variant:               "AGS-Edge",
		MapArrays:             16,
		LightArrays:           8,
		SystolicPEs:           2 * 32 * 32,
		FreqMHz:               500,
		Mem:                   dram.LPDDR4(),
		Tables:                engines.DefaultTableParams(false),
		Scheduled:             true,
		Pipelined:             true,
		GPEParams:             gpe.DefaultParams(16),
		PerIterOverheadCycles: 5000,
		DynEnergyPJop:         1.2,
		DRAMEnergyPJB:         40,
		SystemPowerW:          7,
	}
}

// AGSServer returns the server variant (HBM2, 32 mapping arrays).
func AGSServer() *AGS {
	return &AGS{
		Variant:               "AGS-Server",
		MapArrays:             32,
		LightArrays:           16,
		SystolicPEs:           4 * 32 * 32,
		FreqMHz:               500,
		Mem:                   dram.HBM2(),
		Tables:                engines.DefaultTableParams(true),
		Scheduled:             true,
		Pipelined:             true,
		GPEParams:             gpe.DefaultParams(32),
		PerIterOverheadCycles: 5000,
		DynEnergyPJop:         1.2,
		DRAMEnergyPJB:         15,
		SystemPowerW:          19,
	}
}

// WithScheduler returns a copy with the GPE scheduler toggled (ablation).
func (a *AGS) WithScheduler(on bool) *AGS {
	cp := *a
	cp.Scheduled = on
	if !on {
		cp.Variant += "-nosched"
	}
	return &cp
}

// WithPipelining returns a copy with tracking/mapping overlap toggled.
func (a *AGS) WithPipelining(on bool) *AGS {
	cp := *a
	cp.Pipelined = on
	if !on {
		cp.Variant += "-serial"
	}
	return &cp
}

// Name implements Platform.
func (a *AGS) Name() string { return a.Variant }

// cyclesToNs converts accelerator cycles to nanoseconds.
func (a *AGS) cyclesToNs(c int64) float64 { return float64(c) * 1e3 / a.FreqMHz }

// gsTaskNs returns the time of one splatting task on a GS array of the given
// width, replaying the representative per-pixel workload and scaling by the
// iteration count.
func (a *AGS) gsTaskNs(s *trace.RenderStats, arrays int) (float64, int64) {
	if s.Iters == 0 {
		return 0, 0
	}
	p := a.GPEParams
	p.Arrays = arrays
	var renderCycles int64
	if s.HasDetail() {
		per := gpe.FrameCycles(s.RepPerPixelAlpha, s.RepPerPixelBlend, s.Width, s.Height, p, a.Scheduled)
		renderCycles = per * int64(s.Iters)
	} else {
		// Fallback: throughput bound from aggregate counts.
		work := s.AlphaOps*int64(p.AlphaCycles) + s.BlendOps*int64(p.BlendCycles)
		renderCycles = work / int64(arrays*16)
	}
	// Backward pass: replays blending with gradient math; model as 2x the
	// blend-bound render time on the same arrays.
	backCycles := renderCycles * 2
	// Preprocess (projection units) and sorting (merge network) are
	// pipelined with rendering; charge their throughput bound.
	prepCycles := s.Splats * 2 / int64(arrays)
	sortCycles := s.TileEntries / int64(arrays)
	compute := renderCycles + backCycles + prepCycles + sortCycles +
		int64(s.Iters)*a.PerIterOverheadCycles
	// Memory: Gaussian features + target pixels per iteration.
	bytes := splatBytes(s)
	memNs := dram.StreamNs(a.Mem, bytes)
	ns := a.cyclesToNs(compute)
	if memNs > ns {
		ns = memNs
	}
	return ns, bytes
}

// Frame implements Platform.
func (a *AGS) Frame(f *trace.FrameTrace) Breakdown {
	var b Breakdown

	// FC detection engine: the CODEC computes SAD values anyway; the engine
	// only accumulates per-MB minima (8 adders + 2 comparators, Table 3).
	// Charge one cycle per 8 SAD values plus the DRAM read of the minima.
	fcCycles := f.CodecSADOps / (64 * 8) // one min-SAD per 64-pixel block, 8 adders
	b.CodecNs = a.cyclesToNs(fcCycles)

	// Pose tracking engine: systolic array for the backbone...
	coarseCycles := f.CoarseMACs / int64(a.SystolicPEs)
	b.CoarseNs = a.cyclesToNs(coarseCycles)
	// ...plus the light GS array for refinement iterations.
	trackNs, trackBytes := a.gsTaskNs(&f.Track, a.LightArrays)
	b.TrackNs = trackNs
	b.Bytes += trackBytes

	// Mapping engine.
	mapNs, mapBytes := a.gsTaskNs(&f.Map, a.MapArrays)
	if f.IsKeyFrame && f.Map.RepTileLists.NumTiles() > 0 {
		lg := engines.SimulateLogging(&f.Map.RepTileLists, a.Tables, a.Mem)
		mapNs += lg.OptNs
		b.Bytes += lg.OptAccesses * int64(a.Tables.EntryBytes)
	} else if !f.IsKeyFrame && f.Map.RepTileLists.NumTiles() > 0 {
		sk := engines.SimulateSkipping(&f.Map.RepTileLists, f.NumGaussians, a.Tables, a.Mem)
		mapNs += sk.OptNs
		b.Bytes += sk.StreamBytes
	}
	b.MapNs = mapNs
	b.Bytes += mapBytes

	trackSide := b.CodecNs + b.CoarseNs + b.TrackNs
	if a.Pipelined {
		// Fig. 9: the next frame's FC detection + tracking overlaps this
		// frame's mapping on independent engines.
		if trackSide > b.MapNs {
			b.TotalNs = trackSide
		} else {
			b.TotalNs = b.MapNs
		}
	} else {
		b.TotalNs = trackSide + b.MapNs
	}

	// Energy: dynamic ops + DRAM + static.
	ops := splatFlops(&f.Track) + splatFlops(&f.Map) + float64(f.CoarseMACs)*flopsMAC
	b.EnergyJ = ops*a.DynEnergyPJop*1e-12 +
		float64(b.Bytes)*a.DRAMEnergyPJB*1e-12 +
		a.SystemPowerW*b.TotalNs*1e-9
	return b
}
