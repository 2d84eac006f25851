package platform

import (
	"sync"
	"testing"

	"ags/internal/hw/trace"
	"ags/internal/scene"
	"ags/internal/slam"
)

// Traces are expensive to produce; build them once for all platform tests.
var (
	traceOnce sync.Once
	baseRun   *trace.Run
	agsRun    *trace.Run
)

func runs(t *testing.T) (*trace.Run, *trace.Run) {
	t.Helper()
	traceOnce.Do(func() {
		seq := scene.MustGenerate("Xyz", scene.Config{Width: 48, Height: 36, Frames: 8, Seed: 1})
		cfg := slam.DefaultConfig(48, 36)
		cfg.TrackIters = 16
		cfg.IterT = 4
		cfg.Mapper.MapIters = 6
		cfg.Mapper.DensifyStride = 2
		base, err := slam.Run(cfg, seq)
		if err != nil {
			panic(err)
		}
		baseRun = base.Trace
		acfg := cfg
		acfg.EnableMAT = true
		acfg.EnableGCM = true
		ags, err := slam.Run(acfg, seq)
		if err != nil {
			panic(err)
		}
		agsRun = ags.Trace
	})
	return baseRun, agsRun
}

func TestAGSFasterThanGPUOnSameWork(t *testing.T) {
	base, ags := runs(t)
	gpuBase := RunTotal(A100(), base)
	agsSrv := RunTotal(AGSServer(), ags)
	sp := Speedup(gpuBase, agsSrv)
	if sp < 2 {
		t.Errorf("AGS-Server speedup over A100 = %.2fx", sp)
	}
	gpuEdge := RunTotal(Xavier(), base)
	agsEdge := RunTotal(AGSEdge(), ags)
	spE := Speedup(gpuEdge, agsEdge)
	if spE < 3 {
		t.Errorf("AGS-Edge speedup over Xavier = %.2fx", spE)
	}
	// Paper Fig. 15: the edge speedup exceeds the server speedup.
	if spE <= sp {
		t.Errorf("edge speedup %.2f not larger than server %.2f", spE, sp)
	}
}

func TestGPUAGSGainsLittle(t *testing.T) {
	// Fig. 18: running the AGS algorithm on the GPU helps only ~1.1x —
	// serial ME, backbone launches and table scatter eat the savings.
	base, ags := runs(t)
	gpuBase := RunTotal(A100(), base)
	gpuAGS := RunTotal(A100().WithAGSAlgorithm(), ags)
	sp := Speedup(gpuBase, gpuAGS)
	if sp < 0.8 || sp > 2.2 {
		t.Errorf("GPU-AGS speedup = %.2fx, expected modest (~1.1x)", sp)
	}
	// And it must be far below what the AGS hardware extracts.
	agsFull := RunTotal(AGSServer(), ags)
	if Speedup(gpuBase, agsFull) < 1.5*sp {
		t.Errorf("hardware advantage missing: GPU-AGS %.2fx vs AGS %.2fx",
			sp, Speedup(gpuBase, agsFull))
	}
}

func TestPipeliningHelps(t *testing.T) {
	_, ags := runs(t)
	full := RunTotal(AGSServer(), ags)
	serial := RunTotal(AGSServer().WithPipelining(false), ags)
	if full.TotalNs >= serial.TotalNs {
		t.Errorf("pipelining does not help: %.0f vs %.0f ns", full.TotalNs, serial.TotalNs)
	}
	// On the small, locally-balanced test workload the scheduler may gain
	// little, but it must never cost more than its bookkeeping overhead.
	nosched := RunTotal(AGSServer().WithScheduler(false), ags)
	if full.TotalNs > nosched.TotalNs*1.05 {
		t.Errorf("scheduler overhead too high: %.0f vs %.0f ns", full.TotalNs, nosched.TotalNs)
	}
}

// skewedTrace builds a frame whose per-pixel workload is heavily imbalanced
// (what deep Gaussian tables with early termination and selective skipping
// produce), to exercise the scheduler at the platform level.
func skewedTrace() *trace.Run {
	w, h := 64, 48
	alpha := make([]int32, w*h)
	blend := make([]int32, w*h)
	var alphaOps, blendOps int64
	for i := range alpha {
		if i%16 == 0 {
			alpha[i], blend[i] = 400, 60
		} else {
			alpha[i], blend[i] = 12, 4
		}
		alphaOps += int64(alpha[i])
		blendOps += int64(blend[i])
	}
	f := trace.FrameTrace{IsKeyFrame: true, NumGaussians: 3000}
	f.Map.Iters = 10
	f.Map.AlphaOps = alphaOps * 10
	f.Map.BlendOps = blendOps * 10
	f.Map.BackwardOps = blendOps * 20
	f.Map.Splats = 3000 * 10
	f.Map.TileEntries = 9000 * 10
	f.Map.Pixels = int64(w*h) * 10
	f.Map.RepPerPixelAlpha = trace.Pack(alpha)
	f.Map.RepPerPixelBlend = trace.Pack(blend)
	f.Map.Width, f.Map.Height = w, h
	return &trace.Run{Frames: []trace.FrameTrace{f}}
}

func TestSchedulerHelpsOnSkewedWorkload(t *testing.T) {
	run := skewedTrace()
	sched := RunTotal(AGSServer(), run)
	nosched := RunTotal(AGSServer().WithScheduler(false), run)
	gain := nosched.TotalNs / sched.TotalNs
	if gain < 1.3 {
		t.Errorf("scheduler gain on skewed workload = %.2fx", gain)
	}
}

func TestGSCoreBetweenGPUAndAGS(t *testing.T) {
	base, ags := runs(t)
	gpu := RunTotal(A100(), base)
	gsc := RunTotal(GSCoreServer(), base)
	agsSrv := RunTotal(AGSServer(), ags)
	if gsc.TotalNs >= gpu.TotalNs {
		t.Errorf("GSCore (%.0f) not faster than GPU (%.0f)", gsc.TotalNs, gpu.TotalNs)
	}
	if agsSrv.TotalNs >= gsc.TotalNs {
		t.Errorf("AGS (%.0f) not faster than GSCore (%.0f)", agsSrv.TotalNs, gsc.TotalNs)
	}
}

func TestEnergyEfficiency(t *testing.T) {
	base, ags := runs(t)
	gpu := RunTotal(A100(), base)
	agsSrv := RunTotal(AGSServer(), ags)
	if agsSrv.EnergyJ >= gpu.EnergyJ {
		t.Errorf("AGS energy %.4f J not below GPU %.4f J", agsSrv.EnergyJ, gpu.EnergyJ)
	}
	ratio := gpu.EnergyJ / agsSrv.EnergyJ
	if ratio < 5 {
		t.Errorf("energy efficiency only %.1fx", ratio)
	}
}

func TestBreakdownComponentsPopulated(t *testing.T) {
	_, ags := runs(t)
	agsSrv := RunTotal(AGSServer(), ags)
	if agsSrv.MapNs == 0 || agsSrv.CoarseNs == 0 {
		t.Errorf("breakdown missing components: %+v", agsSrv)
	}
	if agsSrv.Bytes == 0 {
		t.Error("no DRAM traffic recorded")
	}
	// Empty frame costs nothing.
	var empty trace.FrameTrace
	b := AGSServer().Frame(&empty)
	if b.TotalNs != 0 {
		t.Errorf("empty frame cost %v ns", b.TotalNs)
	}
}

func TestTrackingDominatesBaselineGPU(t *testing.T) {
	// Fig. 3: tracking consumes most of the baseline time (N_T >> N_M).
	base, _ := runs(t)
	gpu := RunTotal(A100(), base)
	if gpu.TrackNs <= gpu.MapNs {
		t.Errorf("tracking (%.0f) does not dominate mapping (%.0f)", gpu.TrackNs, gpu.MapNs)
	}
}

// scalarsOnly returns the run as a serving session would have recorded it.
func scalarsOnly(run *trace.Run) *trace.Run {
	lean := *run
	lean.Frames = append([]trace.FrameTrace(nil), run.Frames...)
	for i := range lean.Frames {
		for _, s := range []*trace.RenderStats{&lean.Frames[i].Track, &lean.Frames[i].Map} {
			s.RepPerPixelBlend, s.RepPerPixelAlpha, s.RepTileLists = trace.Packed{}, trace.Packed{}, trace.TileLists{}
			s.Width, s.Height = 0, 0
		}
	}
	return &lean
}

// TestScalarsOnlyTraceIsABound pins what RunTotal makes of a trace without the
// representative-iteration detail (a serving session's): the models that read
// scalars only do not notice, the terms that never needed the detail are
// unchanged, and the AGS model's splatting terms become the perfect-utilisation
// bound, below the replay and blind to the scheduler. The experiments never see
// this side (slam's TestRunTraceCarriesDetail); this says what anyone who feeds
// a Session.Close result to a model gets.
func TestScalarsOnlyTraceIsABound(t *testing.T) {
	base, ags := runs(t)
	for name, run := range map[string]*trace.Run{"baseline": base, "ags": ags} {
		lean := scalarsOnly(run)
		for _, p := range []Platform{Xavier(), A100(), GSCoreServer()} {
			if full, got := RunTotal(p, run), RunTotal(p, lean); got != full {
				t.Errorf("%s on %s: a scalars-only trace moved a model that reads scalars only: %+v vs %+v", p.Name(), name, got, full)
			}
		}

		gpuAGS := A100().WithAGSAlgorithm()
		full, got := RunTotal(gpuAGS, run), RunTotal(gpuAGS, lean)
		if got.CodecNs != full.CodecNs || got.CoarseNs != full.CoarseNs || got.TrackNs != full.TrackNs {
			t.Errorf("%s on %s: codec/coarse/track moved without detail: %+v vs %+v", gpuAGS.Name(), name, got, full)
		}
		if got.Bytes >= full.Bytes || got.MapNs >= full.MapNs {
			t.Errorf("%s on %s: the contribution-table traffic (%d bytes with detail) is still charged without it: %+v",
				gpuAGS.Name(), name, full.Bytes-got.Bytes, got)
		}

		for _, a := range []*AGS{AGSEdge(), AGSServer()} {
			full, got := RunTotal(a, run), RunTotal(a, lean)
			if got.CodecNs != full.CodecNs || got.CoarseNs != full.CoarseNs {
				t.Errorf("%s on %s: codec/coarse moved without detail: %+v vs %+v", a.Name(), name, got, full)
			}
			if got.TrackNs <= 0 || got.TrackNs >= full.TrackNs || got.MapNs <= 0 || got.MapNs >= full.MapNs || got.TotalNs >= full.TotalNs {
				t.Errorf("%s on %s: the aggregate bound %+v is not below the replay %+v", a.Name(), name, got, full)
			}
			if nosched := RunTotal(a.WithScheduler(false), lean); nosched.TotalNs != got.TotalNs {
				t.Errorf("%s on %s: the scheduler changed a total that has no per-pixel workload to schedule: %.0f vs %.0f ns",
					a.Name(), name, nosched.TotalNs, got.TotalNs)
			}
		}
	}
}
