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
	cfg.Workers = 1
	cfg.EnableMAT, cfg.EnableGCM = ags, ags
	return cfg
}

// TestTraceDetailModelPinned pins what the platform models make of offline
// traces: the benchmark's three System workloads (unperturbed frames) and a
// prune-heavy Desk run, whose tile lists stay as recorded across its prunes
// (each model replays a frame's lists on their own, so desk_prune's totals
// held when prunes stopped rewriting them). Each AGS model replays the
// per-pixel planes and, on the mapping side, the tile lists; A100-AGS charges
// the lists' bytes; the rest read scalars only. The constants were the totals
// the same runs gave when the detail was held as int32 slices, which held
// that packing it changed no value any model reads; they were re-recorded
// when tracking became sparse, which moves the tracking task's planes and
// scalars (desk_prune refines no frame and kept its values). The runs' floats
// depend on whether the compiler fuses multiply-adds, so the constants hold
// for amd64 only. The test checks values, not concurrency, and the race
// detector would make it a minute longer, so it skips under the detector; CI
// runs it in the format-pin step.
func TestTraceDetailModelPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("model totals recorded on amd64")
	}
	if raceEnabled {
		t.Skip("ten seconds of pipeline runs, eight times slower under the race detector")
	}
	prune := benchConfig(true)
	prune.Mapper.PruneOpacity, prune.Mapper.LRLogit = 0.25, 0.2
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
			{1.5662120125e+07, 0.1363527040286},
			{9.865955031111106e+06, 0.21341974114471116},
			{1.3111963466666657e+07, 0.27509390142026674},
			{2.9369246047863245e+07, 1.762154762871795},
			{8.291567006567179e+07, 4.97494020394031},
			{1.3800361506698194e+08, 2.484065071205674},
			{6.078796246395539e+07, 1.1549712868151525},
			{2.2382265100681093e+07, 1.3877004362422276},
		}},
		{"s2_ags", "S2", 20, benchConfig(true), []total{
			{1.7075997875e+07, 0.1372560481046},
			{9.938675706666904e+06, 0.2054072656062712},
			{1.3253060417777907e+07, 0.2683805751173803},
			{2.2512649821367517e+07, 1.350758989282051},
			{4.8625580253620796e+07, 2.917534815217248},
			{1.2524793996847913e+08, 2.2544629194326244},
			{4.749787765278425e+07, 0.9024596754029006},
			{1.6390625638176078e+07, 1.0162187895669172},
		}},
		{"desk_baseline", "Desk", 12, benchConfig(false), []total{
			{1.076322525e+07, 0.08122044779719999},
			{6.851464124444445e+06, 0.13530323881164447},
			{2.1959080124444444e+07, 0.4223479428116445},
			{2.852932376581196e+07, 1.7117594259487179},
			{2.8784182431950968e+07, 1.7270509459170584},
			{1.1683178575256106e+08, 2.1029721435460993},
			{5.752087440931405e+07, 1.092896613776967},
			{2.2384770400510814e+07, 1.3878557648316707},
		}},
		{"desk_prune", "Desk", 16, prune, []total{
			{5.89153075e+06, 0.051309350887200005},
			{3.691544755555557e+06, 0.07993995319275554},
			{4.168040755555557e+06, 0.08899337719275556},
			{1.0574240265811965e+07, 0.634454415948718},
			{3.1169273639049664e+07, 1.8701564183429797},
			{4.9478132561071716e+07, 0.890606386099291},
			{2.172623398782414e+07, 0.41279844576865854},
			{8.0588621166616585e+06, 0.49964945123302285},
		}},
	} {
		res, err := Run(r.cfg, scene.MustGenerate(r.seq, scene.Config{Width: 64, Height: 48, Frames: r.frames, Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if tasks, detailed := traceDetail(t, res.Trace.Frames); detailed != tasks {
			t.Errorf("%s: %d of %d tasks carry detail", r.name, detailed, tasks)
		}
		if r.name == "desk_prune" && res.Trace.Totals().PrunedGaussians == 0 {
			t.Errorf("%s: nothing was pruned; the totals do not cover a prune", r.name)
		}
		for i, p := range platforms {
			b := platform.RunTotal(p, res.Trace)
			if got := (total{b.TotalNs, b.EnergyJ}); got != r.want[i] {
				t.Errorf("%s on %s: %v ns, %v J; pinned %v ns, %v J", r.name, p.Name(), got.ns, got.joules, r.want[i].ns, r.want[i].joules)
			}
		}
	}
}
