package trace

import (
	"math"
	"slices"
	"testing"
)

// TestPackedRoundTrip: a packed sequence takes the narrowest width that holds
// its largest element read as unsigned, reads back every element (At and
// AppendTo), and survives Raw/FromRaw byte for byte.
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
		if p.Width() != tc.width || p.Len() != len(tc.in) || len(p.Raw()) != tc.width*len(tc.in) {
			t.Errorf("%s: width %d, %d elements in %d bytes; want width %d, %d elements", tc.name, p.Width(), p.Len(), len(p.Raw()), tc.width, len(tc.in))
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
		back, err := FromRaw(p.Width(), p.Raw())
		if err != nil || back.Width() != p.Width() || !slices.Equal(back.AppendTo(nil), tc.in) {
			t.Errorf("%s: FromRaw(Raw) = %v (width %d), %v", tc.name, back.AppendTo(nil), back.Width(), err)
		}
	}
	if p := (Packed{}); p.Len() != 0 || p.Width() != 1 {
		t.Errorf("the zero Packed has %d elements at width %d, want the empty sequence at width 1", p.Len(), p.Width())
	}
	for _, bad := range []struct {
		width int
		raw   []byte
	}{{0, nil}, {3, make([]byte, 3)}, {8, make([]byte, 8)}, {2, make([]byte, 3)}, {4, make([]byte, 6)}} {
		if _, err := FromRaw(bad.width, bad.raw); err == nil {
			t.Errorf("FromRaw accepted %d bytes at width %d", len(bad.raw), bad.width)
		}
	}
}

// TestPackedRemap: a remap rewrites the elements it covers and leaves the rest
// (sentinels, negatives) alone, in place while the new values fit the width,
// and repacked at a wider width when one does not.
func TestPackedRemap(t *testing.T) {
	p := Pack([]int32{0, 3, 2, 200})
	raw := p.Raw()
	p.Remap([]int32{3, 2, 1, 0})
	if got := p.AppendTo(nil); !slices.Equal(got, []int32{3, 0, 1, 200}) || p.Width() != 1 || &p.Raw()[0] != &raw[0] {
		t.Errorf("in-place remap: %v at width %d (moved %v)", got, p.Width(), &p.Raw()[0] != &raw[0])
	}
	// A prune's sentinel outgrows one byte: the sequence is repacked.
	p.Remap([]int32{300, 0, 1, 2})
	if got := p.AppendTo(nil); !slices.Equal(got, []int32{2, 300, 0, 200}) || p.Width() != 2 {
		t.Errorf("widening remap: %v at width %d, want width 2", got, p.Width())
	}
	n := Pack([]int32{-1, 1})
	n.Remap([]int32{5, 6})
	if got := n.AppendTo(nil); !slices.Equal(got, []int32{-1, 6}) {
		t.Errorf("a negative element was remapped: %v", got)
	}
	var empty Packed
	empty.Remap([]int32{1})
	if empty.Len() != 0 {
		t.Error("remapping the empty sequence made elements")
	}
}

// TestTileListsValidate: the CSR checks a decoder relies on before a model
// indexes the lists.
func TestTileListsValidate(t *testing.T) {
	ids := Pack([]int32{4, 5, 6})
	for _, tc := range []struct {
		name    string
		offsets []int32
		ids     Packed
		ok      bool
	}{
		{"none", nil, Packed{}, true},
		{"IDs without offsets", nil, ids, false},
		{"well-formed", []int32{0, 1, 1, 3}, ids, true},
		{"not from zero", []int32{1, 3}, ids, false},
		{"short of the IDs", []int32{0, 2}, ids, false},
		{"past the IDs", []int32{0, 4}, ids, false},
		{"decreasing", []int32{0, 2, 1, 3}, ids, false},
		{"negative", []int32{0, -1, 3}, ids, false},
	} {
		l := TileLists{IDs: tc.ids, Offsets: Pack(tc.offsets)}
		if err := l.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
