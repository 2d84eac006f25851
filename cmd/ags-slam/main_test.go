package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ags/internal/slam"
)

// TestMain runs the test binary as ags-slam itself when AGS_SLAM_MAIN is
// set, so a test can drive the command end to end without building it.
func TestMain(m *testing.M) {
	if os.Getenv("AGS_SLAM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// agsSlam runs ags-slam with args and returns its standard output.
func agsSlam(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AGS_SLAM_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ags-slam %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestResumePrintsUninterruptedDigestAndATE: a run resumed from a mid-stream
// snapshot prints the uninterrupted run's digest and ATE, both of which cover
// the whole stream (the snapshot carries its history as a hash chain and ATE
// moments), and lists the frames it processed itself, those after the
// snapshot.
func TestResumePrintsUninterruptedDigestAndATE(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "run.snap")
	args := []string{"-seq", "Desk", "-frames", "6", "-w", "32", "-h", "24", "-iters", "4"}
	full := agsSlam(t, slices.Concat(args, []string{"-snapshot", snap, "-snapshot-at", "3"})...)
	resumed := agsSlam(t, slices.Concat(args, []string{"-resume", snap})...)
	for _, key := range []string{"ATE RMSE", "digest"} {
		re := regexp.MustCompile(`(?m)^  ` + key + ` .*$`)
		want, got := re.FindString(full), re.FindString(resumed)
		if want == "" || got != want {
			t.Errorf("resumed run prints %q, the uninterrupted run %q", got, want)
		}
	}
	frames := regexp.MustCompile(`(?m)^  frame +(\d+):`).FindAllStringSubmatch(resumed, -1)
	if len(frames) != 3 || frames[0][1] != "3" || frames[2][1] != "5" {
		t.Errorf("the resumed run lists frames %v, want 3 to 5", frames)
	}
}

func TestCheckSnapshotAt(t *testing.T) {
	for _, tc := range []struct {
		name            string
		at              int
		path            string
		resumed, frames int
		want            string // "" = accepted; otherwise a substring of the error
	}{
		{"unset", 0, "", 0, 4, ""},
		{"after the last frame", 0, "x.snap", 0, 4, ""},
		{"first frame", 1, "x.snap", 0, 4, ""},
		{"last frame", 4, "x.snap", 0, 4, ""},
		{"past the sequence", 10, "x.snap", 0, 4, "want 1..4"},
		{"negative", -1, "x.snap", 0, 4, "want 1..4"},
		{"no snapshot path", 2, "", 0, 4, "needs -snapshot"},
		{"after the resume point", 9, "x.snap", 8, 12, ""},
		{"at the resume point", 8, "x.snap", 8, 12, "want 9..12"},
		{"before the resume point", 3, "x.snap", 8, 12, "want 9..12"},
		{"resumed at the end", 12, "x.snap", 12, 12, "only 0"},
	} {
		err := checkSnapshotAt(tc.at, tc.path, tc.resumed, tc.frames)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckRunFlags(t *testing.T) {
	def := slam.DefaultConfig(1, 1).Mapper
	op, lr := def.PruneOpacity, def.LRLogit // the flags' defaults
	for _, tc := range []struct {
		name                  string
		sessions, iters       int
		resume, snapshot      string
		snapshotAt            int
		pruneOpacity, pruneLR float64
		want                  string // "" = accepted; otherwise a substring of the error
	}{
		{"defaults", 1, 30, "", "", 0, op, lr, ""},
		{"single run with every snapshot flag", 1, 30, "r.snap", "w.snap", 6, op, lr, ""},
		{"sessions", 4, 30, "", "", 0, op, lr, ""},
		{"no tracking iterations", 1, 0, "", "", 0, op, lr, ""},
		{"prune pressure", 1, 30, "", "", 0, 0.25, 0.2, ""},
		{"no pruning, frozen opacities", 1, 30, "", "", 0, 0, 0, ""},
		{"zero sessions", 0, 30, "", "", 0, op, lr, "want 1 or more"},
		{"negative sessions", -2, 30, "", "", 0, op, lr, "want 1 or more"},
		{"sessions with -resume", 2, 30, "/nonexistent.snap", "", 0, op, lr, "want -sessions 1"},
		{"sessions with -snapshot", 2, 30, "", "x.snap", 0, op, lr, "want -sessions 1"},
		{"sessions with -snapshot-at", 2, 30, "", "", 3, op, lr, "want -sessions 1"},
		{"negative iters", 1, -5, "", "", 0, op, lr, "-iters -5 is out of range: want 0 or more"},
		{"both refused", 1, -1, "", "", 0, 2, lr, "-prune-opacity 2"},
		{"prune opacity 1 prunes every Gaussian", 1, 30, "", "", 0, 1, lr, "-prune-opacity 1 is out of range: want [0, 1)"},
		{"prune opacity above 1", 1, 30, "", "", 0, 2, lr, "-prune-opacity 2 is out of range: want [0, 1)"},
		{"negative prune opacity", 1, 30, "", "", 0, -0.1, lr, "-prune-opacity -0.1 is out of range"},
		{"NaN prune opacity", 1, 30, "", "", 0, math.NaN(), lr, "-prune-opacity NaN is out of range"},
		{"negative prune lr", 1, 30, "", "", 0, op, -0.2, "-prune-lr-logit -0.2 is out of range: want 0 or more"},
		{"NaN prune lr", 1, 30, "", "", 0, op, math.NaN(), "-prune-lr-logit NaN is out of range"},
	} {
		err := checkRunFlags(tc.sessions, tc.iters, tc.resume, tc.snapshot, tc.snapshotAt, tc.pruneOpacity, tc.pruneLR)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}
