package mapper

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"ags/internal/scene"
)

// detached returns st sharing no storage with the mapper it was exported
// from, as a decoded snapshot would be.
func detached(st State) State {
	st.Cloud = st.Cloud.Clone()
	st.SkipSet = slices.Clone(st.SkipSet)
	st.Keyframes = slices.Clone(st.Keyframes)
	st.M, st.V = slices.Clone(st.M), slices.Clone(st.V)
	return st
}

// TestOptimizerStateRoundTrip: a mapper rebuilt from its exported state maps
// the next frame bit for bit as the one that was never interrupted — map
// parameters and the optimizer's moments — whether the optimizer has never
// stepped (no moments are exported) or has stepped (eight per Gaussian).
func TestOptimizerStateRoundTrip(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 2, Seed: 1})
	f0, f1 := seq.Frames[0], seq.Frames[1]
	cfg := smallCfg()
	cfg.MapIters = 4

	seeded := func(m *Mapper) {
		m.Densify(f0, seq.Intr, f0.GTPose)
		m.AddKeyframe(f0, 0, f0.GTPose)
	}
	stepped := func(m *Mapper) {
		seeded(m)
		m.FullMapping(f0, seq.Intr, f0.GTPose)
	}
	for _, tc := range []struct {
		name    string
		prepare func(m *Mapper)
		step    int // exported
		steps   int // of the optimizer once the second frame is mapped
	}{
		{"never stepped", seeded, 0, cfg.MapIters},
		{"stepped", stepped, cfg.MapIters, 2 * cfg.MapIters},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newMapper(cfg)
			tc.prepare(a)
			st := a.ExportState()
			moments := perGaussian * a.cloud.Len()
			if tc.step == 0 {
				moments = 0
			}
			if st.Step != tc.step || len(st.M) != moments || len(st.V) != moments {
				t.Fatalf("exported step %d with %d and %d moments, want step %d with %d each", st.Step, len(st.M), len(st.V), tc.step, moments)
			}

			b := newMapper(cfg)
			if err := b.ImportState(detached(st)); err != nil {
				t.Fatal(err)
			}
			a.FullMapping(f1, seq.Intr, f1.GTPose)
			b.FullMapping(f1, seq.Intr, f1.GTPose)
			if !reflect.DeepEqual(a.cloud.Gaussians, b.cloud.Gaussians) || !reflect.DeepEqual(a.skipSet, b.skipSet) {
				t.Error("the restored mapper trained a different map or skip set")
			}
			ma, va, sa := a.opt.State()
			mb, vb, sb := b.opt.State()
			// The moment stream continues: it does not restart at f1.
			if sa != tc.steps {
				t.Errorf("at step %d after mapping the second frame, want %d", sa, tc.steps)
			}
			if sa != sb || !slices.Equal(ma, mb) || !slices.Equal(va, vb) {
				t.Errorf("restored optimizer diverged (step %d vs %d)", sa, sb)
			}
		})
	}
}

// TestImportStateRejectsBadOptimizerState: optimizer state arrives from
// snapshots, which arrive from the network. Each of these is a state no run
// exports, and the moment rows would index out of range in Adam.Update, or
// step the map from moments of another size, if they were adopted. So would
// a skip set of another length than the cloud: a short one used to be padded,
// and a long one carried and re-encoded in every snapshot after.
func TestImportStateRejectsBadOptimizerState(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1})
	f := seq.Frames[0]
	src := newMapper(smallCfg())
	src.Densify(f, seq.Intr, f.GTPose)
	src.FullMapping(f, seq.Intr, f.GTPose)

	for _, tc := range []struct {
		name   string
		damage func(st *State)
		want   string
	}{
		{"short second moments", func(st *State) { st.V = st.V[:len(st.V)-1] }, "second moments"},
		{"short first moments", func(st *State) { st.M = st.M[:3] }, "second moments"},
		{"moments at step 0", func(st *State) { st.Step = 0 }, "want 0 each"},
		{"seven per Gaussian", func(st *State) {
			n := st.Cloud.Len()
			st.M, st.V = st.M[:7*n], st.V[:7*n]
		}, "for 192 Gaussians, want 1536 each"},
		{"one Gaussian short", func(st *State) { st.M, st.V = st.M[:len(st.M)-8], st.V[:len(st.V)-8] }, "want 1536 each"},
		{"none after step 0", func(st *State) { st.M, st.V = nil, nil }, "want 1536 each"},
		{"negative step", func(st *State) { st.Step = -1 }, "step -1"},
		{"short skip set", func(st *State) { st.SkipSet = st.SkipSet[:len(st.SkipSet)-1] }, "skip set"},
		{"long skip set", func(st *State) { st.SkipSet = append(st.SkipSet, true) }, "skip set"},
	} {
		st := detached(src.ExportState())
		tc.damage(&st)
		err := New(smallCfg()).ImportState(st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ImportState error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
