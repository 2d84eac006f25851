package main

import (
	"strings"
	"testing"
)

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
