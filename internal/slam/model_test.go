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
// prune-heavy Desk run, whose retained tile lists are rewritten through every
// prune. Each AGS model replays the per-pixel planes and, on the mapping
// side, the tile lists; A100-AGS charges the lists' bytes; the rest read
// scalars only. The constants are the totals the same runs gave when the
// detail was held as int32 slices, so they hold that packing it changed no
// value any model reads. The runs' floats depend on whether the compiler
// fuses multiply-adds, so the constants hold for amd64 only. The test checks
// values, not concurrency, and the race detector would make it a minute
// longer, so it skips under the detector; CI runs it in the format-pin step.
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
			{1.7173064e+07, 0.14750001632160004},
			{1.0471085226666665e+07, 0.22545432782826672},
			{1.3181569822222218e+07, 0.27695353514382226},
			{2.97374495008547e+07, 1.7842469700512822},
			{8.328390914567292e+07, 4.997034548740373},
			{1.4479318228526402e+08, 2.6062772811347523},
			{6.182292145920139e+07, 1.1746355077248267},
			{2.2465049413361378e+07, 1.3928330636284052},
		}},
		{"s2_ags", "S2", 20, benchConfig(true), []total{
			{1.908039125e+07, 0.15397289382840004},
			{1.0586243377777988e+07, 0.2203251762961818},
			{1.3438304382222239e+07, 0.2745143353806226},
			{2.4343649435897432e+07, 1.4606189661538462},
			{5.0456004948536575e+07, 3.027360296912194},
			{1.59011053427896e+08, 2.862198961702128},
			{5.28559212540854e+07, 1.0042625038276227},
			{1.6813394170232374e+07, 1.0424304385544072},
		}},
		{"desk_baseline", "Desk", 12, benchConfig(false), []total{
			{3.354063525e+07, 0.24673402336480002},
			{1.8716736124444444e+07, 0.3665530080592445},
			{2.3142000124444444e+07, 0.45063302405924455},
			{3.2555237588888887e+07, 1.9533142553333334},
			{3.2810367123195097e+07, 1.9686220273917054},
			{1.9106849454688734e+08, 3.4392329018439716},
			{6.964782113442948e+07, 1.3233086015541604},
			{2.3332897465559892e+07, 1.4466396428647137},
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
			t.Errorf("%s: nothing was pruned; the remap path is not exercised", r.name)
		}
		for i, p := range platforms {
			b := platform.RunTotal(p, res.Trace)
			if got := (total{b.TotalNs, b.EnergyJ}); got != r.want[i] {
				t.Errorf("%s on %s: %v ns, %v J; pinned %v ns, %v J", r.name, p.Name(), got.ns, got.joules, r.want[i].ns, r.want[i].joules)
			}
		}
	}
}
