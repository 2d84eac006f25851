package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// fakeExp builds a cheap declarative experiment around real suite runs: it
// renders a deterministic line per declared pipeline bundle (frame count and
// ATE), so batch output comparisons exercise the real warm/render path
// without the full experiment cost.
func fakeExp(id string, specs ...RunSpec) Experiment {
	return Experiment{
		ID: id, Paper: "test: " + id,
		Needs: specs,
		Render: func(s *Suite, w io.Writer) error {
			for _, spec := range specs {
				if spec.DatasetOnly() {
					fmt.Fprintf(w, "%s: %s frames=%d\n", id, spec.Seq, len(s.Sequence(spec.Seq).Frames))
					continue
				}
				b, err := s.Run(spec)
				if err != nil {
					return err
				}
				ate, err := b.Result.ATERMSECm()
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s: %s ate=%.6f\n", id, spec.ID(), ate)
			}
			return nil
		},
	}
}

func TestPlanSpecsDedup(t *testing.T) {
	a := fakeExp("a", Spec("Desk", VarBaseline), Spec("Desk2", VarBaseline))
	b := fakeExp("b", Spec("Desk", VarBaseline), Spec("Desk", VarAGS))
	c := fakeExp("c", SeqSpec("Desk"), SeqSpec("Room"))
	plan := PlanSpecs([]Experiment{a, b, c})
	// Desk/baseline deduplicates across a and b; the dataset-only Desk spec
	// is dropped because pipeline runs already imply the dataset; Room stays.
	want := []string{"Desk/baseline/", "Desk2/baseline/", "Desk/ags/", "Room//"}
	if len(plan) != len(want) {
		t.Fatalf("plan has %d specs (%v), want %d", len(plan), ids(plan), len(want))
	}
	for i, spec := range plan {
		if spec.ID() != want[i] {
			t.Errorf("plan[%d] = %s, want %s", i, spec.ID(), want[i])
		}
	}
}

func ids(specs []RunSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.ID()
	}
	return out
}

// TestBatchDedupAcrossExperiments: experiments sharing bundles must execute
// the union once, whatever the worker count.
func TestBatchDedupAcrossExperiments(t *testing.T) {
	exps := []Experiment{
		fakeExp("a", Spec("Desk", VarBaseline)),
		fakeExp("b", Spec("Desk", VarBaseline)),
		fakeExp("c", Spec("Desk", VarBaseline), SeqSpec("Desk")),
	}
	s := NewSuite(tinyCfg())
	var buf bytes.Buffer
	if err := RunBatch(s, exps, 4, &buf); err != nil {
		t.Fatal(err)
	}
	if got := s.Executed(); !slices.Equal(got, []string{"Desk/baseline/"}) {
		t.Errorf("batch executed %v, want one Desk/baseline/", got)
	}
	if got := strings.Count(buf.String(), "ate="); got != 3 {
		t.Errorf("output has %d rendered lines, want 3:\n%s", got, buf.String())
	}
}

// TestBatchOutputIdenticalAcrossJobs: -jobs 1 (strictly serial plan order)
// and -jobs 4 must produce byte-identical experiment text.
func TestBatchOutputIdenticalAcrossJobs(t *testing.T) {
	mk := func() []Experiment {
		return []Experiment{
			fakeExp("a", Spec("Desk", VarBaseline), Spec("Desk2", VarBaseline)),
			fakeExp("b", Spec("Desk", VarAGS), Spec("Desk", VarBaseline)),
			fakeExp("c", SeqSpec("Room")),
		}
	}
	var serial, parallel bytes.Buffer
	if err := RunBatch(NewSuite(tinyCfg()), mk(), 1, &serial); err != nil {
		t.Fatal(err)
	}
	if err := RunBatch(NewSuite(tinyCfg()), mk(), 4, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("jobs=1 and jobs=4 output diverged:\n--- jobs=1\n%s--- jobs=4\n%s",
			serial.String(), parallel.String())
	}
	if serial.Len() == 0 {
		t.Fatal("batch produced no output")
	}
}

// TestBatchErrorPropagation: a failing spec stops the batch before any
// rendering and surfaces the underlying error with the spec named.
func TestBatchErrorPropagation(t *testing.T) {
	exps := []Experiment{
		fakeExp("ok", SeqSpec("Desk")),
		fakeExp("bad", Spec("NoSuchSeq", VarBaseline)),
	}
	var buf bytes.Buffer
	err := RunBatch(NewSuite(tinyCfg()), exps, 2, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown sequence") {
		t.Fatalf("batch error = %v, want unknown sequence", err)
	}
	if !strings.Contains(err.Error(), "NoSuchSeq/baseline/") {
		t.Errorf("batch error = %v, want the failing spec's ID", err)
	}
	if buf.Len() != 0 {
		t.Errorf("failing batch rendered output:\n%s", buf.String())
	}
}

// TestBatchRenderErrorPropagation: renderer failures carry the experiment id.
func TestBatchRenderErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{Experiment{
		ID: "exploding", Paper: "test",
		Render: func(*Suite, io.Writer) error { return boom },
	}}
	err := RunBatch(NewSuite(tinyCfg()), exps, 1, io.Discard)
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "exploding") {
		t.Fatalf("render error = %v, want wrapped boom with experiment id", err)
	}
}

// TestBatchMultiExperimentRace drives a real multi-experiment batch at
// jobs=4; under `go test -race` this is the scheduler's race gate.
func TestBatchMultiExperimentRace(t *testing.T) {
	if testing.Short() {
		t.Skip("slam runs in short mode")
	}
	exps := []Experiment{
		fakeExp("a", Spec("Desk", VarBaseline), Spec("Desk", VarAGS)),
		fakeExp("b", Spec("Desk", VarBaseline), Spec("Desk2", VarBaseline)),
		fakeExp("c", Spec("Desk2", VarBaseline), Spec("Desk", VarAGS), SeqSpec("Room")),
	}
	s := NewSuite(tinyCfg())
	s.Log = io.Discard
	var buf bytes.Buffer
	if err := RunBatch(s, exps, 4, &buf); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Executed()); n != 3 {
		t.Errorf("batch executed %d pipelines, want 3 unique", n)
	}
}

// TestBatchReusesCachedRuns: a second batch over the same suite executes
// nothing new and renders the same text from the cache.
func TestBatchReusesCachedRuns(t *testing.T) {
	s := NewSuite(tinyCfg())
	exps := []Experiment{fakeExp("a", Spec("Desk", VarBaseline))}
	var first, second bytes.Buffer
	if err := RunBatch(s, exps, 1, &first); err != nil {
		t.Fatal(err)
	}
	if err := RunBatch(s, exps, 1, &second); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Executed()); n != 1 {
		t.Errorf("two batches executed %d pipelines, want 1", n)
	}
	if first.String() != second.String() {
		t.Errorf("cached batch rendered different text:\n%s---\n%s", first.String(), second.String())
	}
}
