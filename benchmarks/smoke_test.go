package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke is a workload small enough for go test: 32x24, 6 frames.
func smoke(fleet bool) workload {
	w := workload{name: "smoke", why: "test", w: 32, h: 24, streams: []streamSpec{{"Desk", 6}}, ags: true, repSeconds: 1, venueFrames: 3}
	if fleet {
		w.fleet, w.streams = true, []streamSpec{{"Desk", 6}, {"Desk2", 6}}
	}
	return w
}

func lastLine(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, out)
	}
	return rep
}

// TestSmoke runs one tiny workload through both passes and checks the report
// against BENCHMARK.json: the same metric names, well-formed, with units.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	for _, fleet := range []bool{false, true} {
		var out, errs bytes.Buffer
		o := options{seed: 1, seconds: 1, timed: true, traced: true, reps: 1, setupReps: 1}
		dir := t.TempDir()
		if code := runAll([]workload{smoke(fleet)}, o, dir, &out, &errs); code != 0 {
			t.Fatalf("fleet=%v: exit code %d\n%s%s", fleet, code, out.String(), errs.String())
		}
		rep := lastLine(t, out.String())
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 6 {
			t.Fatalf("fleet=%v: report %+v", fleet, rep)
		}
		for name, m := range rep.Metrics {
			if !nameOK.MatchString(name) {
				t.Errorf("metric name %q is malformed", name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("metric %q is not in BENCHMARK.json", name)
			} else if m.Unit == "" || m.Unit != unit {
				t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("fleet=%v: BENCHMARK.json metric %q was not reported", fleet, name)
			}
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("trace.json: %v, %d spans", err, len(spans))
		}
	}
}

// TestModesSplitTheMetrics checks the driver's contract: --trace 0 reports
// exactly the end-to-end metrics and --trace 1 exactly the per-layer ones.
func TestModesSplitTheMetrics(t *testing.T) {
	spec := readSpec(t)
	for _, traced := range []bool{false, true} {
		var out, errs bytes.Buffer
		o := options{seed: 2, seconds: 1, timed: !traced, traced: traced, reps: 1, setupReps: 1}
		if code := runAll([]workload{smoke(false)}, o, t.TempDir(), &out, &errs); code != 0 {
			t.Fatalf("traced=%v: exit code %d\n%s", traced, code, out.String())
		}
		rep := lastLine(t, out.String())
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics reported, BENCHMARK.json lists %d", traced, len(rep.Metrics), len(want))
		}
		for _, m := range want {
			if _, ok := rep.Metrics[m.Name]; !ok {
				t.Errorf("traced=%v: %q missing", traced, m.Name)
			}
		}
	}
}

// TestCorruptDigestFails shows the digest checks run: with the reference
// digest corrupted the command reports incorrect and exits non-zero.
func TestCorruptDigestFails(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		var out, errs bytes.Buffer
		o := options{seed: 1, seconds: 1, timed: true, reps: 1, setupReps: 1, corruptDigest: true}
		if code := runAll([]workload{smoke(fleet)}, o, t.TempDir(), &out, &errs); code == 0 {
			t.Fatalf("fleet=%v: exit code 0 with a corrupted digest\n%s", fleet, out.String())
		}
		rep := lastLine(t, out.String())
		if rep.Correct || rep.Failed == 0 {
			t.Fatalf("fleet=%v: report %+v", fleet, rep)
		}
		if !strings.Contains(out.String(), "CHECK FAILED") {
			t.Fatalf("fleet=%v: no failed check was named\n%s", fleet, out.String())
		}
	}
}

// TestWorkloadsMatchSpec checks the workload table against BENCHMARK.json and
// that the command line rejects what it does not know.
func TestWorkloadsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, workloads[i].name, w.Name)
		}
	}
	var out, errs bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errs); code != 2 {
		t.Errorf("unknown workload: exit code %d, want 2", code)
	}
	if code := realMain([]string{"--trace", "7"}, &out, &errs); code != 2 {
		t.Errorf("bad --trace: exit code %d, want 2", code)
	}
}
