package slam

import (
	"slices"
	"testing"

	"ags/internal/scene"
)

// TestPruneKeepsTraceHistory: a prune edits the live map, not the retained
// traces. Each frame's mapping tile lists, copied when that frame's tail
// ends, read the same at the end of a prune-heavy run, and every ID they
// name is below the NumGaussians the frame recorded.
func TestPruneKeepsTraceHistory(t *testing.T) {
	const w, h, frames = 64, 48, 16
	cfg := pruneCfg(w, h)
	for _, name := range []string{"Desk", "Room"} {
		seq := scene.MustGenerate(name, scene.Config{Width: w, Height: h, Frames: frames, Seed: 1})
		sys := New(cfg, seq.Intr)
		var ids, offsets [][]int32
		for _, f := range seq.Frames {
			if err := sys.ProcessFrame(f); err != nil {
				t.Fatal(err)
			}
			sys.join()
			l := &sys.traceFrames[len(sys.traceFrames)-1].Map.RepTileLists
			ids = append(ids, l.IDs.AppendTo(nil))
			offsets = append(offsets, l.Offsets.AppendTo(nil))
		}
		res := sys.Finish(name)
		sys.Close()
		if res.Trace.Totals().PrunedGaussians == 0 {
			t.Fatalf("%s: the prune config never fired; the test exercises nothing", name)
		}
		listed := 0
		for i := range res.Trace.Frames {
			ft := &res.Trace.Frames[i]
			l := &ft.Map.RepTileLists
			got := l.IDs.AppendTo(nil)
			if !slices.Equal(got, ids[i]) || !slices.Equal(l.Offsets.AppendTo(nil), offsets[i]) {
				t.Errorf("%s: frame %d's tile lists changed after its tail ended", name, i)
			}
			if j := slices.IndexFunc(got, func(id int32) bool { return id < 0 || int(id) >= ft.NumGaussians }); j >= 0 {
				t.Errorf("%s: frame %d names Gaussian %d, outside the %d it rendered", name, i, got[j], ft.NumGaussians)
			}
			listed += len(got)
		}
		if listed == 0 {
			t.Fatalf("%s: no frame kept tile lists", name)
		}
	}
}
