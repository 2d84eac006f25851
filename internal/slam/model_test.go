package slam

import (
	"runtime"
	"testing"

	"ags/internal/hw/platform"
	"ags/internal/scene"
)

// benchConfig is the pipeline configuration of the benchmark's workloads
// (benchmarks/workloads.go), at its 64x48.
func benchConfig(ags bool) Config {
	cfg := DefaultConfig(64, 48)
	cfg.TrackIters, cfg.IterT = 24, 5
	cfg.Mapper.MapIters, cfg.Mapper.DensifyStride = 8, 2
	cfg.EnableMAT, cfg.EnableGCM = ags, ags
	return cfg
}

// TestTraceDetailModelPinned pins what the platform models make of offline
// traces: the benchmark's three System workloads (unperturbed frames). Each
// AGS model replays the per-pixel planes and, on the mapping side, the tile
// lists; A100-AGS charges the lists' bytes; the rest read scalars only. The
// constants were the totals the same runs gave when the detail was held as
// int32 slices, which held that packing it changed no value any model reads;
// they were re-recorded when tracking became sparse, which moves the tracking
// task's planes and scalars, and again when refinement moved beside the
// previous frame's mapping tail, which moves every refined pose. The runs'
// floats depend on whether the compiler fuses multiply-adds, so the
// constants hold for amd64 only. The test checks values, not concurrency,
// and the race detector would make it a minute longer, so it skips under the
// detector; CI runs it in the format-pin step.
func TestTraceDetailModelPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("model totals recorded on amd64")
	}
	if raceEnabled {
		t.Skip("ten seconds of pipeline runs, eight times slower under the race detector")
	}
	platforms := []platform.Platform{
		platform.AGSEdge(), platform.AGSServer(), platform.AGSServer().WithScheduler(false),
		platform.A100(), platform.A100().WithAGSAlgorithm(), platform.Xavier(),
		platform.GSCoreEdge(), platform.GSCoreServer(),
	}
	type total struct{ ns, joules float64 }
	for _, r := range []struct {
		name, seq string
		frames    int
		cfg       Config
		want      []total // in the order of platforms
	}{
		{"desk_ags", "Desk", 40, benchConfig(true), []total{
			{1.57369365625e+07, 0.1368971695887},
			{9.901573555555552e+06, 0.21411629100675555},
			{1.3152215822222218e+07, 0.27587849407342224},
			{2.9382940020512823e+07, 1.7629764012307696},
			{8.292938410263006e+07, 4.975763046157804},
			{1.3825612803782505e+08, 2.4886103046808516},
			{6.079799298195552e+07, 1.155161866657155},
			{2.2383838979066506e+07, 1.3877980167021235},
		}},
		{"s2_ags", "S2", 20, benchConfig(true), []total{
			{1.7028475375e+07, 0.13687886166420002},
			{9.941900088889098e+06, 0.20548052152809285},
			{1.30415086044446e+07, 0.26437308332364745},
			{2.254522305470085e+07, 1.3527133832820515},
			{4.865749959627889e+07, 2.919449975776734},
			{1.258485811505122e+08, 2.26527446070922},
			{4.742297244007277e+07, 0.9010364763613826},
			{1.6388917190394629e+07, 1.0161128658044674},
		}},
		{"desk_baseline", "Desk", 12, benchConfig(false), []total{
			{1.033073525e+07, 0.0780432550868},
			{6.628812124444445e+06, 0.13095994330124447},
			{2.0411052124444444e+07, 0.39282250330124446},
			{2.846480514017094e+07, 1.7078883084102563},
			{2.871964477094017e+07, 1.7231786862564102},
			{1.1564208059889679e+08, 2.0815574507801426},
			{5.722538422141512e+07, 1.0872823002068872},
			{2.2364094196905047e+07, 1.3865738402081131},
		}},
	} {
		res, err := Run(r.cfg, scene.MustGenerate(r.seq, scene.Config{Width: 64, Height: 48, Frames: r.frames, Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if tasks, detailed := traceDetail(t, res.Trace.Frames); detailed != tasks {
			t.Errorf("%s: %d of %d tasks carry detail", r.name, detailed, tasks)
		}
		for i, p := range platforms {
			b := platform.RunTotal(p, res.Trace)
			if got := (total{b.TotalNs, b.EnergyJ}); got != r.want[i] {
				t.Errorf("%s on %s: %v ns, %v J; pinned %v ns, %v J", r.name, p.Name(), got.ns, got.joules, r.want[i].ns, r.want[i].joules)
			}
		}
	}
}
