package bench

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"ags/internal/scene"
	"ags/internal/slam"
)

// tinyCfg keeps bench tests fast; experiment correctness at scale is
// exercised by cmd/ags-bench.
func tinyCfg() Config {
	return Config{
		Width: 40, Height: 32, Frames: 6,
		TrackIters: 8, IterT: 3, MapIters: 4,
		DensifyStride: 2, Seed: 1,
	}
}

func TestRunCacheReuses(t *testing.T) {
	s := NewSuite(tinyCfg())
	b1 := s.MustRun(Spec("Desk", VarBaseline))
	b2 := s.MustRun(Spec("Desk", VarBaseline))
	if b1 != b2 {
		t.Error("cache returned different bundles for same key")
	}
	b3 := s.MustRun(Spec("Desk", VarAGS))
	if b3 == b1 {
		t.Error("different variants shared a bundle")
	}
	if n := len(s.Executed()); n != 2 {
		t.Errorf("suite executed %d pipelines, want 2", n)
	}
}

// TestRunSingleflight is the check-then-act regression test: N concurrent
// callers of one spec must trigger exactly one pipeline execution and all
// receive the same bundle.
func TestRunSingleflight(t *testing.T) {
	s := NewSuite(tinyCfg())
	const callers = 16
	bundles := make([]*Bundle, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bundles[i], errs[i] = s.Run(Spec("Desk", VarBaseline))
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if bundles[i] != bundles[0] {
			t.Fatalf("caller %d received a different bundle", i)
		}
	}
	if n := len(s.Executed()); n != 1 {
		t.Errorf("%d concurrent callers triggered %d executions, want 1", callers, n)
	}
}

// TestSequenceSingleflight checks dataset generation is shared the same way.
func TestSequenceSingleflight(t *testing.T) {
	s := NewSuite(tinyCfg())
	const callers = 8
	seqs := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seqs[i] = s.Sequence("Desk")
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if seqs[i] != seqs[0] {
			t.Fatalf("caller %d generated a distinct sequence", i)
		}
	}
}

func TestRunRejectsDatasetOnlySpec(t *testing.T) {
	s := NewSuite(tinyCfg())
	if _, err := s.Run(SeqSpec("Desk")); err == nil {
		t.Error("dataset-only spec accepted by Run")
	}
}

func TestRunUnknownSequence(t *testing.T) {
	s := NewSuite(tinyCfg())
	if _, err := s.Run(Spec("NoSuchSeq", VarBaseline)); err == nil ||
		!strings.Contains(err.Error(), "unknown sequence") {
		t.Errorf("unknown sequence error = %v", err)
	}
	// The failure must not poison the cache: a valid spec still runs.
	if _, err := s.Run(Spec("Desk", VarBaseline)); err != nil {
		t.Fatal(err)
	}
}

func TestFindExperiment(t *testing.T) {
	e, err := Find("fig15a")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig15a" || e.Paper == "" {
		t.Errorf("bad experiment identity: %q / %q", e.ID, e.Paper)
	}
	if len(e.Needs) == 0 {
		t.Error("fig15a declares no needs")
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// The registry is the paper's evaluation and nothing else: 23 tables and
	// figures, in paper order.
	want := []string{"table1", "fig3", "fig4", "fig5", "fig6", "table2", "fig14", "fp",
		"fig15a", "fig15b", "table3", "fig16", "fig17", "fig18", "table4", "fig19",
		"fig20", "fig21", "fig22", "fig23", "abl-codec", "abl-tables", "abl-overlap"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry = %v, want %v", got, want)
	}
}

// TestNeedsAreWellFormed: every declared spec names a known sequence, keyed
// specs carry an override, and — critically — no override ships without a
// key: ID() ignores Override, so an unkeyed override would collide with the
// plain (sequence, variant) cache slot and poison other experiments.
func TestNeedsAreWellFormed(t *testing.T) {
	known := map[string]bool{}
	for _, name := range scene.Names() {
		known[name] = true
	}
	for _, e := range Experiments() {
		for _, spec := range e.Needs {
			if !known[spec.Seq] {
				t.Errorf("%s: spec names unknown sequence %q", e.ID, spec.Seq)
			}
			if spec.Key != "" && spec.Override == nil {
				t.Errorf("%s: keyed spec %s without override", e.ID, spec.ID())
			}
			if spec.Key == "" && spec.Override != nil {
				t.Errorf("%s: spec %s has an override but no key (cache collision)", e.ID, spec.ID())
			}
			if spec.DatasetOnly() && spec.Key != "" {
				t.Errorf("%s: dataset-only spec %s with key", e.ID, spec.ID())
			}
		}
	}
}

// TestRunRejectsUnkeyedOverride pins the cache-collision guard.
func TestRunRejectsUnkeyedOverride(t *testing.T) {
	s := NewSuite(tinyCfg())
	spec := RunSpec{Seq: "Desk", Variant: VarAGS, Override: func(*slam.Config) {}}
	if _, err := s.Run(spec); err == nil || !strings.Contains(err.Error(), "key") {
		t.Errorf("unkeyed override accepted: %v", err)
	}
}

func TestTable3RunsWithoutSlam(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(tinyCfg())
	if err := s.Table3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 3", "FC Detection Engine", "GS Array", "7.", "14."} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig22RunsOnSequencesOnly(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(tinyCfg())
	if err := s.Fig22(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "High") {
		t.Errorf("fig22 output malformed:\n%s", buf.String())
	}
	if n := len(s.Executed()); n != 0 {
		t.Errorf("fig22 executed %d pipelines, want 0 (dataset-only)", n)
	}
}

func TestSpeedupExperimentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slam runs in short mode")
	}
	var buf bytes.Buffer
	s := NewSuite(tinyCfg())
	// Restrict to one sequence by running the underlying pieces directly:
	// Fig. 15 needs all nine sequences, which is too slow here; instead
	// exercise Table 1, which needs three variants on Desk.
	if err := s.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"AGS (this work)", "SplaTAM-style baseline", "ATE"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable("T", "A", "LongColumn")
	tab.AddRow("x", 1.5)
	tab.AddRow("yyyy", "z")
	tab.AddNote("n=%d", 2)
	tab.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "1.50") || !strings.Contains(out, "note: n=2") {
		t.Errorf("bad table output:\n%s", out)
	}
	// Header and separator align.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

// TestGaussianSLAMBackboneDoesMoreMapping: the Gaussian-SLAM backbone (§6.6,
// Fig. 23) is a choice of mapping settings. Each gslam variant is its plain
// counterpart with twice the mapping iterations and a four-frame key-frame
// window, and nothing else.
func TestGaussianSLAMBackboneDoesMoreMapping(t *testing.T) {
	s := NewSuite(tinyCfg())
	for _, v := range []struct{ gslam, plain Variant }{
		{VarGSLAMBase, VarBaseline},
		{VarGSLAMAGS, VarGCMOnly},
	} {
		want, err := s.slamConfig(v.plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		want.Mapper.MapIters *= 2
		want.Mapper.KeyframeWindow = 4
		if got, err := s.slamConfig(v.gslam, nil); err != nil || got != want {
			t.Errorf("%s = %+v,\nwant %s with MapIters x2 and KeyframeWindow 4: %+v", v.gslam, got, v.plain, want)
		}
	}
}
