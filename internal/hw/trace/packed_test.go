package trace

import (
	"math"
	"slices"
	"testing"
)

// TestPackedRoundTrip: a packed sequence takes the narrowest width that holds
// its largest element read as unsigned and reads back every element (At and
// AppendTo).
func TestPackedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    []int32
		width int
	}{
		{"nil", nil, 1},
		{"empty", []int32{}, 1},
		{"zero", []int32{0, 0, 0}, 1},
		{"255", []int32{7, 255, 0}, 1},
		{"256", []int32{256, 1}, 2},
		{"65535", []int32{65535, 3, 255}, 2},
		{"65536", []int32{65536, 0}, 4},
		{"MaxInt32", []int32{math.MaxInt32, 1}, 4},
		{"negative", []int32{5, -1, math.MinInt32}, 4},
	} {
		p := Pack(tc.in)
		if p.width() != tc.width || p.Len() != len(tc.in) || len(p.b) != tc.width*len(tc.in) {
			t.Errorf("%s: width %d, %d elements in %d bytes; want width %d, %d elements", tc.name, p.width(), p.Len(), len(p.b), tc.width, len(tc.in))
		}
		if got := p.AppendTo(nil); !slices.Equal(got, tc.in) {
			t.Errorf("%s: AppendTo returned %v, want %v", tc.name, got, tc.in)
		}
		for i, v := range tc.in {
			if p.At(i) != v {
				t.Errorf("%s: At(%d) = %d, want %d", tc.name, i, p.At(i), v)
			}
		}
		if got := p.AppendTo([]int32{9}); !slices.Equal(got, append([]int32{9}, tc.in...)) {
			t.Errorf("%s: AppendTo after a prefix returned %v", tc.name, got)
		}
	}
	if p := (Packed{}); p.Len() != 0 || p.width() != 1 {
		t.Errorf("the zero Packed has %d elements at width %d, want the empty sequence at width 1", p.Len(), p.width())
	}
}

// width returns the bytes per element: 1, 2 or 4.
func (p Packed) width() int { return 1 << p.shift }
