package main

import (
	"math"
	"strings"
	"testing"

	"ags/internal/slam"
)

func TestInRange(t *testing.T) {
	const frames = 24
	for _, tc := range []struct {
		name string
		v    int64
		hi   int64
		want string // "" = accepted; otherwise a substring of the error
	}{
		{"drain never", 0, frames - 1, ""},
		{"drain after the first frame", 1, frames - 1, ""},
		{"drain before the last frame", 23, frames - 1, ""},
		{"drain after the last frame", 24, frames - 1, "-x 24 is out of range: want 1..23, or 0 for zero"},
		{"drain past the run", 30, frames - 1, "want 1..23"},
		{"drain negative", -1, frames - 1, "want 1..23"},
		{"one-frame run", 1, 0, "only 0 (zero)"},
		{"one-frame run, never", 0, 0, ""},
		{"count zero", 0, math.MaxInt64, ""},
		{"count one", 1, math.MaxInt64, ""},
		{"count large", 1 << 40, math.MaxInt64, ""},
		{"count negative", -1, math.MaxInt64, "-x -1 is out of range: want 1 or more, or 0 for zero"},
		{"count very negative", -1 << 40, math.MaxInt64, "want 1 or more"},
	} {
		err := inRange("x", tc.v, tc.hi, "zero")
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

// TestRouteFlags: route refuses a frame side or frame count below 1 and an
// -algo slam.AlgorithmConfig does not know (checkFlags exits 2 on them before
// any sequence is generated or node dialled), and takes every name it knows.
func TestRouteFlags(t *testing.T) {
	algo := func(name string) error { _, err := slam.AlgorithmConfig(name); return err }
	for _, tc := range []struct {
		name string
		err  error
		want string // "" = accepted; otherwise a substring of the error
	}{
		{"width one", atLeastOne("w", 1), ""},
		{"width zero", atLeastOne("w", 0), "-w 0 is out of range: want 1 or more"},
		{"height negative", atLeastOne("h", -48), "-h -48 is out of range"},
		{"frames zero", atLeastOne("frames", 0), "-frames 0 is out of range"},
		{"frames many", atLeastOne("frames", 1<<20), ""},
		{"algo unknown", algo("splatam"), `algorithm "splatam" is not one of baseline, ags, mat, gcm, droid`},
		{"algo empty", algo(""), "is not one of"},
		{"algo baseline", algo("baseline"), ""},
		{"algo droid", algo("droid"), ""},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: refused: %v", tc.name, tc.err)
		case tc.want != "" && tc.err == nil:
			t.Errorf("%s: accepted, want an error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(tc.err.Error(), tc.want):
			t.Errorf("%s: error %q does not contain %q", tc.name, tc.err, tc.want)
		}
	}
}
