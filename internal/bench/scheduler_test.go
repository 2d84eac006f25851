package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"ags/internal/fleet"
	"ags/internal/grid"
	"ags/internal/scene"
	"ags/internal/slam"
)

// fakeExp builds a cheap declarative experiment around real suite runs: it
// renders a deterministic line per declared pipeline bundle (frame count and
// ATE), so batch output comparisons exercise the real warm/render path
// without the full experiment cost.
func fakeExp(id string, specs ...RunSpec) Experiment {
	return expDef{
		id: id, paper: "test: " + id,
		needs: specs,
		render: func(s *Suite, w io.Writer) error {
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
// rendering and surfaces the underlying error.
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
	if buf.Len() != 0 {
		t.Errorf("failing batch rendered output:\n%s", buf.String())
	}
}

// TestBatchRenderErrorPropagation: renderer failures carry the experiment id.
func TestBatchRenderErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{expDef{
		id: "exploding", paper: "test",
		render: func(*Suite, io.Writer) error { return boom },
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

// startGridWorkers boots n loopback worker nodes for grid batch tests.
func startGridWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		node := fleet.NewNode(fleet.NodeConfig{
			Name: fmt.Sprintf("wk-%c", 'a'+i),
			Jobs: grid.NewWorker(),
		})
		addr, err := node.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs[i] = addr
	}
	return addrs
}

// TestBatchOutputIdenticalGridVsLocal extends the byte-equality gate to the
// grid path: the same experiments rendered from a local warm and from a
// two-worker distributed warm must produce byte-identical text, with every
// run placed on a named worker and its wire bytes accounted.
func TestBatchOutputIdenticalGridVsLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("slam runs in short mode")
	}
	mk := func() []Experiment {
		return []Experiment{
			fakeExp("a", Spec("Desk", VarBaseline), Spec("Desk2", VarBaseline)),
			fakeExp("b", Spec("Desk", VarAGS), Spec("Desk", VarBaseline)),
			fakeExp("c", SeqSpec("Room")),
		}
	}
	var local bytes.Buffer
	if err := RunBatch(NewSuite(tinyCfg()), mk(), 1, &local); err != nil {
		t.Fatal(err)
	}

	sch, err := grid.New(grid.Config{Workers: startGridWorkers(t, 2), Window: 1, SampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()
	suite := NewSuite(tinyCfg())
	var progress bytes.Buffer
	suite.Log = &progress
	var dist bytes.Buffer
	if err := RunBatchWith(suite, mk(), 1, sch, &dist); err != nil {
		t.Fatal(err)
	}

	if local.String() != dist.String() {
		t.Errorf("local and grid output diverged:\n--- local\n%s--- grid\n%s",
			local.String(), dist.String())
	}
	m := sch.Metrics()
	if m.Jobs != len(suite.Executed()) {
		t.Errorf("grid ran %d jobs, suite executed %d specs", m.Jobs, len(suite.Executed()))
	}
	for _, pw := range m.PerWorker {
		if pw.Jobs < 1 {
			t.Errorf("worker %s ran no spec (distribution %+v)", pw.Name, m.PerWorker)
		}
	}
	if m.WireBytes <= 0 {
		t.Error("grid wire bytes not accounted")
	}
	// Progress lines carry worker attribution; experiment text (stdout) must
	// never mention workers, or byte-identity across venues would break.
	if !strings.Contains(progress.String(), "# [wk-") {
		t.Errorf("progress lines lack worker prefixes:\n%s", progress.String())
	}
	if strings.Contains(dist.String(), "wk-") {
		t.Errorf("experiment text leaked worker names:\n%s", dist.String())
	}
}

// failingExec is an Executor whose every job fails remotely — the stand-in
// for a worker that dies mid-run after the coordinator resolved the spec.
type failingExec struct{}

func (failingExec) ExecuteSpec(job grid.Job, _ *scene.Sequence) (*slam.Result, grid.ExecInfo, error) {
	return nil, grid.ExecInfo{}, fmt.Errorf("worker melted running %s", job.ID)
}

// TestBatchGridRemoteFailurePropagates: a remote mid-run failure must surface
// through RunBatchWith with the job's identity, stop the batch before
// rendering, and drain the pool instead of wedging it.
func TestBatchGridRemoteFailurePropagates(t *testing.T) {
	exps := []Experiment{
		fakeExp("a", Spec("Desk", VarBaseline)),
		fakeExp("b", Spec("Desk2", VarBaseline)),
	}
	var buf bytes.Buffer
	err := RunBatchWith(NewSuite(tinyCfg()), exps, 2, failingExec{}, &buf)
	if err == nil || !strings.Contains(err.Error(), "worker melted running Desk/baseline/") {
		t.Fatalf("batch error = %v, want the failing job named", err)
	}
	if buf.Len() != 0 {
		t.Errorf("failing grid batch rendered output:\n%s", buf.String())
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
