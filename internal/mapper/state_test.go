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
	st.Opt = slices.Clone(st.Opt)
	for i := range st.Opt {
		st.Opt[i].M = slices.Clone(st.Opt[i].M)
		st.Opt[i].V = slices.Clone(st.Opt[i].V)
	}
	return st
}

// TestOptimizerStateRoundTrip: a mapper rebuilt from its exported state maps
// the next frame bit for bit as the one that was never interrupted — map
// parameters and all four optimizers' moments — whether the optimizers have
// never stepped (no group is exported), have stepped, or were remapped by a
// prune.
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
		groups  []string // exported, in snapshot order
		steps   int      // of every optimizer once the second frame is mapped
	}{
		{"never stepped", seeded, nil, cfg.MapIters},
		{"stepped", stepped, []string{"color", "logit", "mean", "scale"}, 2 * cfg.MapIters},
		{"compacted", func(m *Mapper) {
			stepped(m)
			before := m.cloud.Len()
			for _, id := range []int{3, 4, 10} {
				m.cloud.At(id).SetOpacity(0)
			}
			if n := m.Prune(); n != 3 {
				t.Fatalf("the prune removed %d Gaussians, want 3", n)
			}
			if mm, _, _ := m.optMean.State(); len(mm) != 3*(before-3) {
				t.Fatalf("the prune left %d mean moments for %d Gaussians", len(mm), before-3)
			}
		}, []string{"color", "logit", "mean", "scale"}, 2 * cfg.MapIters},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newMapper(cfg)
			tc.prepare(a)
			st := a.ExportState()
			var names []string
			for _, g := range st.Opt {
				names = append(names, g.Name)
			}
			if !slices.Equal(names, tc.groups) {
				t.Fatalf("exported optimizer groups %v, want %v", names, tc.groups)
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
			ga, gb := a.optGroups(), b.optGroups()
			for i := range ga {
				ma, va, sa := ga[i].adam.State()
				mb, vb, sb := gb[i].adam.State()
				// The moment streams continue: they do not restart at f1.
				if sa != tc.steps {
					t.Errorf("%s: at step %d after mapping the second frame, want %d", ga[i].name, sa, tc.steps)
				}
				if sa != sb || !slices.Equal(ma, mb) || !slices.Equal(va, vb) {
					t.Errorf("%s: restored optimizer diverged (step %d vs %d)", ga[i].name, sa, sb)
				}
			}
		})
	}
}

// TestCompactResetsStaleMoments: moments that no longer cover the cloud (it
// grew since the last step) are dropped by a prune, as Adam.Remap documents,
// and such a mapper exports no optimizer group.
func TestCompactResetsStaleMoments(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1})
	f := seq.Frames[0]
	m := newMapper(smallCfg())
	m.Densify(f, seq.Intr, f.GTPose)
	m.FullMapping(f, seq.Intr, f.GTPose)
	if m.Densify(f, seq.Intr, f.GTPose) == 0 {
		t.Fatal("re-densifying added nothing: the moments are not stale")
	}
	m.cloud.At(0).SetOpacity(0)
	if n := m.Prune(); n != 1 {
		t.Fatalf("the prune removed %d Gaussians, want 1", n)
	}
	for _, g := range m.optGroups() {
		if mm, vv, step := g.adam.State(); mm != nil || vv != nil || step != 0 {
			t.Errorf("%s: stale moments survived the prune (%d values, step %d)", g.name, len(mm), step)
		}
	}
	if st := m.ExportState(); len(st.Opt) != 0 {
		t.Errorf("exported %d optimizer groups after the reset", len(st.Opt))
	}
}

// TestImportStateRejectsBadOptimizerState: optimizer state arrives from
// snapshots, which arrive from the network. Each of these would index out of
// range in Adam.Step or Adam.Remap, or silently train a group at a rate the
// config never named, if it were adopted. So would a skip set of another
// length than the cloud: a short one used to be padded, and a long one carried
// and re-encoded in every snapshot after.
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
		{"short second moments", func(st *State) { st.Opt[2].V = st.Opt[2].V[:len(st.Opt[2].V)-3] }, "second moments"},
		{"short first moments", func(st *State) { st.Opt[0].M = st.Opt[0].M[:3] }, "second moments"},
		{"off-stride length", func(st *State) {
			st.Opt[2].M, st.Opt[2].V = st.Opt[2].M[:4], st.Opt[2].V[:4]
		}, "multiples of 3"},
		{"unknown group", func(st *State) { st.Opt[1].Name = "rotation" }, "unknown"},
		{"repeated group", func(st *State) { st.Opt[3] = st.Opt[2] }, "repeated"},
		{"negative step", func(st *State) { st.Opt[0].Step = -1 }, "step -1"},
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
