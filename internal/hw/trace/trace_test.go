package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

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

func TestDropDetailKeepsScalars(t *testing.T) {
	var s RenderStats
	s.Accumulate(10, 5, 10, 100, 200, 1000)
	scalars := s
	if s.HasDetail() {
		t.Error("stats with no representative iteration report detail")
	}
	s.RepPerPixelBlend = Pack([]int32{1})
	if s.HasDetail() {
		t.Error("one plane reported as detail")
	}
	s.RepPerPixelAlpha = Pack([]int32{2})
	s.Width, s.Height = 1, 1
	if !s.HasDetail() {
		t.Error("detail not reported")
	}
	s.RepTileLists = TileLists{IDs: Pack([]int32{0}), Offsets: Pack([]int32{0, 1})}
	s.DropDetail()
	if s.HasDetail() || !reflect.DeepEqual(s, scalars) {
		t.Errorf("after DropDetail: %+v, want the scalars %+v", s, scalars)
	}
}

func TestRunTotals(t *testing.T) {
	run := &Run{Sequence: "x", Width: 8, Height: 8}
	f0 := FrameTrace{Index: 0, IsKeyFrame: true, CodecSADOps: 100, CoarseMACs: 50}
	f0.Map.Accumulate(1, 2, 3, 4, 5, 6)
	f1 := FrameTrace{Index: 1, CoarseOnly: true, CodecSADOps: 100}
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

func TestSummarizeAndJSON(t *testing.T) {
	run := &Run{Sequence: "s", Width: 4, Height: 4}
	f := FrameTrace{Index: 0, IsKeyFrame: true, NumGaussians: 10, SkippedGaussians: 3, Covisibility: 0.8}
	f.Track.Accumulate(5, 4, 8, 2, 3, 16)
	f.Map.Accumulate(7, 6, 12, 4, 5, 16)
	run.Frames = []FrameTrace{f}

	sum := run.Summarize()
	if len(sum.Frames) != 1 {
		t.Fatalf("frames = %d", len(sum.Frames))
	}
	fs := sum.Frames[0]
	if fs.AlphaOps != 12 || fs.BlendOps != 10 || fs.BackwardOps != 20 {
		t.Errorf("ops: %+v", fs)
	}
	if !fs.KeyFrame || fs.Gaussians != 10 || fs.Skipped != 3 {
		t.Errorf("flags: %+v", fs)
	}
	if sum.Totals.Frames != 1 {
		t.Errorf("totals: %+v", sum.Totals)
	}

	var buf bytes.Buffer
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Sequence != "s" || back.Frames[0].CoarseMACs != 0 {
		t.Errorf("roundtrip: %+v", back)
	}
}
