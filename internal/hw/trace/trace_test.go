package trace

import "testing"

func TestAccumulate(t *testing.T) {
	var s RenderStats
	s.Accumulate(10, 5, 10, 100, 200, 1000)
	s.Accumulate(10, 5, 10, 100, 200, 1000)
	if s.Iters != 2 {
		t.Errorf("iters = %d", s.Iters)
	}
	if s.AlphaOps != 20 || s.BlendOps != 10 || s.BackwardOps != 20 {
		t.Errorf("ops = %d/%d/%d", s.AlphaOps, s.BlendOps, s.BackwardOps)
	}
	if s.Splats != 200 || s.TileEntries != 400 || s.Pixels != 2000 {
		t.Errorf("aux = %d/%d/%d", s.Splats, s.TileEntries, s.Pixels)
	}
}

// TestHasDetailNeedsBothPlanes: the AGS model replays a task only when both
// per-pixel planes are there.
func TestHasDetailNeedsBothPlanes(t *testing.T) {
	var s RenderStats
	s.Accumulate(10, 5, 10, 100, 200, 1000)
	if s.HasDetail() {
		t.Error("stats with no representative iteration report detail")
	}
	s.RepPerPixelBlend = Pack([]int32{1})
	if s.HasDetail() {
		t.Error("one plane reported as detail")
	}
	s.RepPerPixelAlpha = Pack([]int32{2})
	if !s.HasDetail() {
		t.Error("detail not reported")
	}
}

func TestRunTotals(t *testing.T) {
	run := &Run{}
	f0 := FrameTrace{IsKeyFrame: true, CodecSADOps: 100, CoarseMACs: 50}
	f0.Map.Accumulate(1, 2, 3, 4, 5, 6)
	f1 := FrameTrace{CoarseOnly: true, CodecSADOps: 100}
	f1.Track.Accumulate(10, 20, 30, 40, 50, 60)
	run.Frames = []FrameTrace{f0, f1}

	tot := run.Totals()
	if tot.Frames != 2 || tot.KeyFrames != 1 || tot.CoarseOnly != 1 {
		t.Errorf("counts: %+v", tot)
	}
	if tot.SADOps != 200 || tot.CoarseMACs != 50 {
		t.Errorf("codec/coarse: %+v", tot)
	}
	if tot.TrackIters != 1 || tot.MapIters != 1 {
		t.Errorf("iters: %+v", tot)
	}
	if tot.AlphaOps != 11 || tot.BlendOps != 22 || tot.BackwardOps != 33 {
		t.Errorf("ops: %+v", tot)
	}
	if tot.SplatsTouched != 44 || tot.TileEntries != 55 {
		t.Errorf("aux: %+v", tot)
	}
}

func TestEmptyRunTotals(t *testing.T) {
	tot := (&Run{}).Totals()
	if tot.Frames != 0 || tot.AlphaOps != 0 {
		t.Errorf("empty totals: %+v", tot)
	}
}
