package slam

import (
	"fmt"
	"strings"
	"testing"

	"ags/internal/scene"
)

// fastCfg shrinks iteration counts so pipeline tests stay quick.
func fastCfg(w, h int) Config {
	cfg := DefaultConfig(w, h)
	cfg.TrackIters = 12
	cfg.IterT = 4
	cfg.Mapper.MapIters = 6
	cfg.Mapper.DensifyStride = 2
	return cfg
}

func fastAGS(w, h int) Config {
	cfg := fastCfg(w, h)
	cfg.EnableMAT = true
	cfg.EnableGCM = true
	return cfg
}

const tw, th = 48, 36

func testSeq(t *testing.T, name string, frames int) *scene.Sequence {
	t.Helper()
	return scene.MustGenerate(name, scene.Config{Width: tw, Height: th, Frames: frames, Seed: 1})
}

func TestBaselineRunTracksSequence(t *testing.T) {
	seq := testSeq(t, "Xyz", 10)
	cfg := fastCfg(tw, th)
	cfg.TrackIters = 30
	cfg.Mapper.DensifyStride = 1
	cfg.Mapper.MapIters = 8
	res, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Poses) != 10 || res.Frames != 10 {
		t.Fatalf("poses %d of %d frames", len(res.Poses), res.Frames)
	}
	ate, err := res.ATERMSECm()
	if err != nil {
		t.Fatal(err)
	}
	// One pixel at this resolution is ~6.5 cm at 2 m depth; the baseline
	// must stay within about 1.5 px of trajectory error.
	if ate > 10 {
		t.Errorf("baseline ATE = %.2f cm", ate)
	}
	if err := res.Cloud.Validate(); err != nil {
		t.Fatal(err)
	}
	// Baseline: every frame is a key frame, none coarse-only.
	for i, inf := range res.Info {
		if !inf.IsKeyFrame {
			t.Errorf("baseline frame %d not a key frame", i)
		}
		if inf.CoarseOnly {
			t.Errorf("baseline frame %d coarse-only", i)
		}
	}
}

func TestAGSRunSkipsWorkOnHighCovisibility(t *testing.T) {
	seq := testSeq(t, "Xyz", 10)
	cfg := fastAGS(tw, th)
	cfg.Mapper.DensifyStride = 1
	cfg.Mapper.MapIters = 8
	// The short 10-frame test sequence moves faster per frame than the
	// experiment-scale datasets; open the gate correspondingly.
	cfg.ThreshT = 0.82
	res, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Trace.Totals()
	// On the high-covisibility Xyz sequence AGS must skip refinement on
	// most frames and designate few key frames.
	if tot.CoarseOnly == 0 {
		t.Error("AGS never used coarse-only tracking on Xyz")
	}
	if tot.KeyFrames >= len(seq.Frames) {
		t.Error("AGS made every frame a key frame on Xyz")
	}
	// And still track acceptably (the coarse aligner is sub-pixel).
	ate, err := res.ATERMSECm()
	if err != nil {
		t.Fatal(err)
	}
	if ate > 7 {
		t.Errorf("AGS ATE = %.2f cm", ate)
	}
}

func TestAGSDoesLessTrackingWorkThanBaseline(t *testing.T) {
	seq := testSeq(t, "Xyz", 6)
	base, err := Run(fastCfg(tw, th), seq)
	if err != nil {
		t.Fatal(err)
	}
	ags, err := Run(fastAGS(tw, th), seq)
	if err != nil {
		t.Fatal(err)
	}
	bt := base.Trace.Totals()
	at := ags.Trace.Totals()
	if at.TrackIters >= bt.TrackIters {
		t.Errorf("AGS tracking iterations %d >= baseline %d", at.TrackIters, bt.TrackIters)
	}
	if at.BlendOps+at.AlphaOps >= bt.BlendOps+bt.AlphaOps {
		t.Errorf("AGS splat ops %d >= baseline %d", at.BlendOps+at.AlphaOps, bt.BlendOps+bt.AlphaOps)
	}
}

func TestForceCoarseOnlyNeverRefines(t *testing.T) {
	seq := testSeq(t, "Desk", 5)
	cfg := fastCfg(tw, th)
	cfg.ForceCoarseOnly = true
	res, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	for i, inf := range res.Info[1:] {
		if !inf.CoarseOnly {
			t.Errorf("frame %d refined despite ForceCoarseOnly", i+1)
		}
		if inf.RefineIters != 0 {
			t.Errorf("frame %d has refine iters", i+1)
		}
	}
	if res.Trace.Totals().TrackIters != 0 {
		t.Error("trace records tracking iterations")
	}
}

func TestTraceRecordsCodecAndCoarseWork(t *testing.T) {
	seq := testSeq(t, "Desk", 4)
	res, err := Run(fastAGS(tw, th), seq)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Trace.Totals()
	if tot.SADOps == 0 {
		t.Error("no CODEC work recorded")
	}
	if tot.CoarseMACs == 0 {
		t.Error("no coarse-tracking MACs recorded")
	}
	// Key frames carry logging-table access streams.
	foundLog := false
	for _, f := range res.Trace.Frames {
		if f.IsKeyFrame && f.Map.RepTileLists.NumTiles() > 0 {
			foundLog = true
		}
	}
	if !foundLog {
		t.Error("no key frame logging streams in trace")
	}
}

func TestFrameSizeMismatchRejected(t *testing.T) {
	seq := testSeq(t, "Desk", 1)
	other := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1})
	sys := New(fastCfg(tw, th), seq.Intr)
	if err := sys.ProcessFrame(other.Frames[0]); err == nil {
		t.Error("mismatched frame size accepted")
	}
}

func TestEvaluatePSNRReasonable(t *testing.T) {
	seq := testSeq(t, "Desk", 4)
	res, err := Run(fastCfg(tw, th), seq)
	if err != nil {
		t.Fatal(err)
	}
	empty := *seq
	empty.Frames = nil
	short := *res
	short.Poses = res.Poses[:2] // what a failed third push leaves behind
	for _, tc := range []struct {
		name    string
		res     *Result
		seq     *scene.Sequence
		wantErr string
	}{
		{"full run", res, seq, ""},
		{"no frames", res, &empty, "no frames"},
		{"fewer poses than frames", &short, seq, "2 poses for the 4 frames"},
	} {
		psnr, err := EvaluatePSNR(tc.res, tc.seq, 1)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: PSNR = %v, err = %v; want an error naming %q", tc.name, psnr, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Even the fast test config must reconstruct something recognizable.
		if psnr < 15 {
			t.Errorf("%s: PSNR = %.2f dB", tc.name, psnr)
		}
	}
}

func TestFPRateMeasurement(t *testing.T) {
	seq := testSeq(t, "Xyz", 6)
	cfg := fastAGS(tw, th)
	cfg.EvalFPRate = true
	res, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	var seen bool
	for _, inf := range res.Info {
		if inf.FPValid {
			seen = true
			if inf.FPRate < 0 || inf.FPRate > 1 {
				t.Errorf("FP rate %v out of range", inf.FPRate)
			}
		}
	}
	if !seen {
		t.Skip("no non-key frames in this short run")
	}
}

func TestScaleThreshN(t *testing.T) {
	// Thresh_N counts per-Gaussian wasted pixels, which are bounded by the
	// tile footprint and independent of image resolution, so the paper value
	// passes through unscaled at every frame size.
	for _, dims := range [][2]int{{640, 480}, {96, 72}, {8, 8}} {
		if got := DefaultConfig(dims[0], dims[1]).Mapper.ThreshN; got != 450 {
			t.Errorf("DefaultConfig(%dx%d).Mapper.ThreshN = %d, want 450", dims[0], dims[1], got)
		}
	}
}

// TestAlgorithmConfig: each variant name sets exactly its switches on
// DefaultConfig and leaves every other field alone, and an unknown name is
// refused with the list of names.
func TestAlgorithmConfig(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		mat, gcm, coarseOnly bool
	}{
		{"baseline", false, false, false},
		{"ags", true, true, false},
		{"mat", true, false, false},
		{"gcm", false, true, false},
		{"droid", false, false, true},
	} {
		want := DefaultConfig(tw, th)
		want.EnableMAT, want.EnableGCM, want.ForceCoarseOnly = tc.mat, tc.gcm, tc.coarseOnly
		if got, err := AlgorithmConfig(tc.name); err != nil || got != want {
			t.Errorf("AlgorithmConfig(%q) = %+v, %v;\nwant %+v", tc.name, got, err, want)
		}
	}
	for _, name := range []string{"", "AGS", "splatam", "gslam-ags"} {
		_, err := AlgorithmConfig(name)
		if want := fmt.Sprintf("algorithm %q is not one of baseline, ags, mat, gcm, droid", name); err == nil || err.Error() != want {
			t.Errorf("AlgorithmConfig(%q): error %v, want %q", name, err, want)
		}
	}
}

// TestProcessFrameSurfacesCovisibilityError: a failing covisibility
// comparison is an internal error, not "no covisibility". ProcessFrame must
// return it (it used to read it as a new key frame) and leave the system
// untouched, so the stream continues bit-identically once the cause is gone.
func TestProcessFrameSurfacesCovisibilityError(t *testing.T) {
	seq := testSeq(t, "Desk", 4)
	cfg := fastAGS(tw, th)
	want, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}

	sys := New(cfg, seq.Intr)
	defer sys.Close()
	if err := sys.ProcessFrame(seq.Frames[0]); err != nil {
		t.Fatal(err)
	}
	block := sys.detector.Cfg.BlockSize
	sys.detector.Cfg.BlockSize = 0 // the codec rejects this configuration
	err = sys.ProcessFrame(seq.Frames[1])
	if err == nil || !strings.Contains(err.Error(), "covisibility with the previous frame") {
		t.Fatalf("ProcessFrame with a failing detector: err = %v", err)
	}
	if sys.FrameCount() != 1 {
		t.Fatalf("failed frame advanced the stream: FrameCount = %d", sys.FrameCount())
	}
	sys.detector.Cfg.BlockSize = block
	for _, f := range seq.Frames[1:] {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Finish(seq.Name).Digest(); got != want.Digest() {
		t.Error("the failed frame perturbed the run: digest differs from an undisturbed one")
	}
}
