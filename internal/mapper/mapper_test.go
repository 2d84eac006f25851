package mapper

import (
	"reflect"
	"testing"

	"ags/internal/camera"
	"ags/internal/hw/trace"
	"ags/internal/metrics"
	"ags/internal/scene"
	"ags/internal/splat"
)

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.MapIters = 8
	cfg.ThreshN = 10
	cfg.DensifyStride = 2
	return cfg
}

// newMapper is New with the render context every mapping and densification
// renders through.
func newMapper(cfg Config) *Mapper {
	m := New(cfg)
	m.Ctx = splat.NewRenderContext()
	return m
}

func TestDensifySeedsEmptyCloud(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 1, Seed: 1})
	m := newMapper(smallCfg())
	added := m.Densify(seq.Frames[0], seq.Intr, seq.Frames[0].GTPose)
	// Stride 2 on 48x36 with full depth coverage: 24*18 gaussians.
	if added != 24*18 {
		t.Errorf("added %d gaussians, want %d", added, 24*18)
	}
	if m.Cloud().NumActive() != added {
		t.Errorf("active %d != added %d", m.Cloud().NumActive(), added)
	}
	if err := m.Cloud().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDensifySecondViewOnlyFillsGaps(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 10, Seed: 1})
	m := newMapper(smallCfg())
	first := m.Densify(seq.Frames[0], seq.Intr, seq.Frames[0].GTPose)
	// Re-densifying the same view must add far less than a full seed (some
	// oblique-surface pixels exceed the depth-error criterion; that is the
	// densifier refining them, not a reseed).
	again := m.Densify(seq.Frames[0], seq.Intr, seq.Frames[0].GTPose)
	if again > first/2 {
		t.Errorf("re-densify added %d (first %d)", again, first)
	}
	// The adjacent view reveals a little new area; additions must stay well
	// below a full seed.
	later := m.Densify(seq.Frames[1], seq.Intr, seq.Frames[1].GTPose)
	if later >= first/2 {
		t.Errorf("adjacent viewpoint re-seeded: %d vs %d", later, first)
	}
}

func TestFullMappingImprovesPSNR(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 1, Seed: 1})
	f := seq.Frames[0]
	m := newMapper(smallCfg())
	m.Densify(f, seq.Intr, f.GTPose)
	cam := camera.Camera{Intr: seq.Intr, Pose: f.GTPose}

	before := splat.Render(m.Cloud(), cam, splat.Options{})
	psnrBefore, err := metrics.PSNR(before.Color, f.Color)
	if err != nil {
		t.Fatal(err)
	}
	stats := m.FullMapping(f, seq.Intr, f.GTPose)
	after := splat.Render(m.Cloud(), cam, splat.Options{})
	psnrAfter, err := metrics.PSNR(after.Color, f.Color)
	if err != nil {
		t.Fatal(err)
	}
	if psnrAfter <= psnrBefore {
		t.Errorf("mapping did not improve PSNR: %.2f -> %.2f", psnrBefore, psnrAfter)
	}
	if stats.Iters != 8 {
		t.Errorf("iters = %d", stats.Iters)
	}
	if !stats.HasDetail() {
		t.Error("full mapping did not emit the logging-table access stream")
	}
	if err := m.Cloud().Validate(); err != nil {
		t.Fatal(err)
	}
	// Told to keep scalars only, a mapper trains the same map and reports the
	// same stats less the detail, which it never builds.
	lean := newMapper(smallCfg())
	lean.ScalarsOnly = true
	lean.Densify(f, seq.Intr, f.GTPose)
	leanStats := lean.FullMapping(f, seq.Intr, f.GTPose)
	// The scalars: the stats less the detail.
	stats.RepPerPixelBlend, stats.RepPerPixelAlpha, stats.RepTileLists = trace.Packed{}, trace.Packed{}, trace.TileLists{}
	stats.Width, stats.Height = 0, 0
	if !reflect.DeepEqual(leanStats, stats) {
		t.Errorf("scalars-only mapping stats %+v, want %+v", leanStats, stats)
	}
	if !reflect.DeepEqual(lean.Cloud().Gaussians, m.Cloud().Gaussians) || !reflect.DeepEqual(lean.skipSet, m.skipSet) {
		t.Error("scalars-only mapping trained a different map or skip set")
	}
}

func TestContributionRecordingAndSkipSet(t *testing.T) {
	// Two well-separated viewpoints: Gaussians seeded from the first view
	// that are occluded or irrelevant in the second become skippable there.
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 40, Seed: 1})
	f0, f := seq.Frames[0], seq.Frames[30]
	cfg := smallCfg()
	cfg.ThreshN = 5
	m := newMapper(cfg)
	m.Densify(f0, seq.Intr, f0.GTPose)
	m.FullMapping(f0, seq.Intr, f0.GTPose)
	m.Densify(f, seq.Intr, f.GTPose)
	m.FullMapping(f, seq.Intr, f.GTPose)
	if len(m.skipSet) != m.Cloud().Len() {
		t.Fatalf("skip set len %d vs cloud %d", len(m.skipSet), m.Cloud().Len())
	}
	if m.NumSkipped() == 0 {
		t.Error("nothing skipped — selective mapping would be a no-op")
	}
	pred := m.PredictedNonContrib()
	if len(pred) != m.NumSkipped() {
		t.Errorf("PredictedNonContrib %d != NumSkipped %d", len(pred), m.NumSkipped())
	}

	// The skip set is the thresholds applied to a logged render's counts.
	// Gaussians added after that render (the slots it does not cover) count
	// zero both ways, so they are never skipped.
	res := splat.Render(m.Cloud(), camera.Camera{Intr: seq.Intr, Pose: f.GTPose},
		splat.Options{LogContribution: true})
	if m.Densify(seq.Frames[15], seq.Intr, seq.Frames[15].GTPose) == 0 {
		t.Fatal("the third view added no Gaussians")
	}
	m.recordContribution(res)
	if len(m.skipSet) != m.Cloud().Len() {
		t.Fatalf("skip set len %d vs cloud %d after densifying", len(m.skipSet), m.Cloud().Len())
	}
	var any bool
	for id, s := range m.skipSet {
		var nonContrib, contrib int32
		if id < len(res.NonContrib) {
			nonContrib, contrib = res.NonContrib[id], res.Touched[id]-res.NonContrib[id]
		}
		any = any || nonContrib > 0
		if want := contrib <= contribPixMax && int(nonContrib) > cfg.ThreshN; s != want {
			t.Fatalf("skip[%d]=%v but contrib=%d noncontrib=%d", id, s, contrib, nonContrib)
		}
	}
	if !any {
		t.Error("no non-contributory pixels recorded at all")
	}
}

func TestSelectiveMappingDoesLessWork(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 2, Seed: 1})
	f0, f1 := seq.Frames[0], seq.Frames[1]
	cfg := smallCfg()
	cfg.ThreshN = 3
	m := newMapper(cfg)
	m.Densify(f0, seq.Intr, f0.GTPose)
	fullStats := m.FullMapping(f0, seq.Intr, f0.GTPose)
	if m.NumSkipped() == 0 {
		t.Skip("no gaussians predicted non-contributory at this threshold")
	}
	selStats := m.SelectiveMapping(f1, seq.Intr, f1.GTPose)
	// Selective mapping preprocesses fewer Gaussians per iteration.
	fullPerIter := fullStats.Splats / int64(fullStats.Iters)
	selPerIter := selStats.Splats / int64(selStats.Iters)
	if selPerIter >= fullPerIter {
		t.Errorf("selective mapping did not reduce splat work: %d vs %d", selPerIter, fullPerIter)
	}
}

func TestSelectiveMappingPreservesQuality(t *testing.T) {
	// The paper's claim: skipping predicted non-contributory Gaussians
	// barely hurts rendering quality on a high-covisibility next frame.
	seq := scene.MustGenerate("Xyz", scene.Config{Width: 48, Height: 36, Frames: 2, Seed: 1})
	f0, f1 := seq.Frames[0], seq.Frames[1]
	cfg := smallCfg()
	cfg.MapIters = 10
	m := newMapper(cfg)
	m.Densify(f0, seq.Intr, f0.GTPose)
	m.FullMapping(f0, seq.Intr, f0.GTPose)

	cam1 := camera.Camera{Intr: seq.Intr, Pose: f1.GTPose}
	full := splat.Render(m.Cloud(), cam1, splat.Options{})
	sel := splat.Render(m.Cloud(), cam1, splat.Options{Skip: m.skipSet})
	pFull, _ := metrics.PSNR(full.Color, f1.Color)
	pSel, _ := metrics.PSNR(sel.Color, f1.Color)
	if pFull-pSel > 1.5 {
		t.Errorf("selective render lost %.2f dB (%.2f -> %.2f)", pFull-pSel, pFull, pSel)
	}
}

func TestKeyframeWindowBounded(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 12, Seed: 1})
	cfg := smallCfg()
	cfg.KeyframeWindow = 4
	m := New(cfg)
	for _, f := range seq.Frames {
		m.AddKeyframe(f, f.Index, f.GTPose)
	}
	if len(m.keyframes) != 4 {
		t.Errorf("keyframe window = %d", len(m.keyframes))
	}
	// Must retain the most recent ones.
	if m.keyframes[3].Frame.Index != 11 {
		t.Errorf("last keyframe index = %d", m.keyframes[3].Frame.Index)
	}

	// Zero keeps none, and so does a window below zero (hostile configs reach
	// here unvalidated; -1 used to slice out of range).
	for _, window := range []int{0, -1} {
		cfg.KeyframeWindow = window
		m := New(cfg)
		for _, f := range seq.Frames[:3] {
			m.AddKeyframe(f, f.Index, f.GTPose)
		}
		if len(m.keyframes) != 0 {
			t.Errorf("KeyframeWindow %d retained %d keyframes", window, len(m.keyframes))
		}
	}
}
