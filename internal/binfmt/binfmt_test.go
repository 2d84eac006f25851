package binfmt

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// kinds is every primitive and slice kind the cursor speaks: how to write a
// sample value, and how to read it back and compare.
var kinds = []struct {
	name string
	put  func(*Enc)
	get  func(*Dec) bool
	size int
}{
	{"raw", func(e *Enc) { e.Raw([]byte{1, 2, 3}) },
		func(d *Dec) bool { return bytes.Equal(d.Take(3), []byte{1, 2, 3}) }, 3},
	{"u8", func(e *Enc) { e.U8(0xA5) }, func(d *Dec) bool { return d.U8() == 0xA5 }, 1},
	{"u32", func(e *Enc) { e.U32(0xDEADBEEF) }, func(d *Dec) bool { return d.U32() == 0xDEADBEEF }, 4},
	{"u64", func(e *Enc) { e.U64(math.MaxUint64 - 1) }, func(d *Dec) bool { return d.U64() == math.MaxUint64-1 }, 8},
	{"i64", func(e *Enc) { e.I64(math.MinInt64 + 7) }, func(d *Dec) bool { return d.I64() == math.MinInt64+7 }, 8},
	{"f64 nan bits", func(e *Enc) { e.F64(math.Float64frombits(0x7FF8_0000_0000_1234)) },
		func(d *Dec) bool { return math.Float64bits(d.F64()) == 0x7FF8_0000_0000_1234 }, 8},
	{"f64 negative zero", func(e *Enc) { e.F64(math.Copysign(0, -1)) },
		func(d *Dec) bool { return math.Float64bits(d.F64()) == 1<<63 }, 8},
	{"bool true", func(e *Enc) { e.Bool(true) }, func(d *Dec) bool { return d.Bool() }, 1},
	{"bool false", func(e *Enc) { e.Bool(false) }, func(d *Dec) bool { return !d.Bool() }, 1},
	{"str", func(e *Enc) { e.Str("héllo") }, func(d *Dec) bool { return d.Str() == "héllo" }, 8 + 6},
	{"str empty", func(e *Enc) { e.Str("") }, func(d *Dec) bool { return d.Str() == "" }, 8},
	{"bytes", func(e *Enc) { e.Bytes([]byte{9, 8}) }, func(d *Dec) bool { return bytes.Equal(d.Bytes(), []byte{9, 8}) }, 8 + 2},
	{"f64s", func(e *Enc) { e.F64s([]float64{1.5, -2.25, math.Inf(1)}) },
		func(d *Dec) bool { return slices.Equal(d.F64s(), []float64{1.5, -2.25, math.Inf(1)}) }, 8 + 24},
	{"f64s empty", func(e *Enc) { e.F64s(nil) }, func(d *Dec) bool { return d.F64s() == nil }, 8},
	{"bools", func(e *Enc) { e.Bools([]bool{true, false, true}) },
		func(d *Dec) bool { return slices.Equal(d.Bools(), []bool{true, false, true}) }, 8 + 3},
	{"bools empty", func(e *Enc) { e.Bools(nil) }, func(d *Dec) bool { return d.Bools() == nil }, 8},
}

// TestRoundTripAndCountingSize: every kind reads back what was written, a
// counting encoder reports exactly the bytes an appending one writes, alone
// and with all kinds back to back, and Finish accepts the fully read payload.
func TestRoundTripAndCountingSize(t *testing.T) {
	var all Enc
	allSize := Counting()
	for _, k := range kinds {
		var e Enc
		k.put(&e)
		size := Counting()
		k.put(&size)
		if len(e.Buf) != k.size || size.Len() != k.size || e.Len() != k.size {
			t.Errorf("%s: appended %d bytes, counted %d, want %d", k.name, len(e.Buf), size.Len(), k.size)
		}
		if size.Buf != nil {
			t.Errorf("%s: counting encoder wrote bytes", k.name)
		}
		d := NewDec(e.Buf)
		if !k.get(d) {
			t.Errorf("%s: read back a different value", k.name)
		}
		if err := d.Finish(k.name); err != nil {
			t.Errorf("%s: %v", k.name, err)
		}
		k.put(&all)
		k.put(&allSize)
	}
	if allSize.Len() != len(all.Buf) {
		t.Errorf("counting pass says %d bytes, appending pass wrote %d", allSize.Len(), len(all.Buf))
	}
	d := NewDec(all.Buf)
	for _, k := range kinds {
		if !k.get(d) {
			t.Errorf("%s: read back a different value from the concatenated payload", k.name)
		}
	}
	if err := d.Finish("all"); err != nil {
		t.Error(err)
	}
}

// TestAppendReusesBuffer: encoding by value into a buffer with room allocates
// nothing — the property slam.AppendFrame's callers rely on.
func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	vals := []float64{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(20, func() {
		e := Enc{Buf: buf[:0]}
		e.I64(7)
		e.F64s(vals)
		e.Str("name")
		buf = e.Buf
	}); allocs != 0 {
		t.Errorf("encode into a warm buffer: %.0f allocs/op, want 0", allocs)
	}
}

// TestGuardsRejectWithoutAllocating: a length prefix or a 2-D size the payload
// cannot hold fails before anything is sized from it. The declared sizes here
// are petabytes; reaching make with one panics or kills the process.
func TestGuardsRejectWithoutAllocating(t *testing.T) {
	var huge Enc
	huge.U64(1 << 50)
	huge.Raw(make([]byte, 64))
	for _, tc := range []struct {
		name string
		read func(*Dec)
	}{
		{"str", func(d *Dec) { d.Str() }},
		{"bytes", func(d *Dec) { d.Bytes() }},
		{"f64s", func(d *Dec) { d.F64s() }},
		{"bools", func(d *Dec) { d.Bools() }},
		{"len", func(d *Dec) { d.Len(112) }},
	} {
		d := NewDec(huge.Buf)
		tc.read(d)
		if d.Err() == nil {
			t.Errorf("%s: a 2^50 length prefix over 64 bytes was accepted", tc.name)
		}
	}

	// Len's unit: 9 elements of 8 bytes do not fit 64 bytes, 8 do.
	for _, n := range []uint64{8, 9} {
		var e Enc
		e.U64(n)
		e.Raw(make([]byte, 64))
		d := NewDec(e.Buf)
		if got := d.Len(8); (d.Err() == nil) != (n == 8) || (n == 8 && got != 8) {
			t.Errorf("Len(8) of %d over 64 bytes: got %d, err %v", n, got, d.Err())
		}
	}

	for _, tc := range []struct {
		rows, cols int64
		unit, want int
		ok         bool
	}{
		{4, 4, 4, 16, true},
		{0, 1 << 40, 8, 0, true},
		{1 << 40, 0, 8, 0, true},
		{4, 5, 4, 0, false},
		{-1, 1, 1, 0, false},
		{1, -1, 1, 0, false},
		{3037000500, 3037000500, 24, 0, false}, // product wraps negative
		{1 << 62, 4, 1, 0, false},              // product wraps to zero
		{math.MaxInt64, math.MaxInt64, 1, 0, false},
	} {
		d := NewDec(make([]byte, 64))
		got := d.Area(tc.rows, tc.cols, tc.unit)
		if got != tc.want || (d.Err() == nil) != tc.ok {
			t.Errorf("Area(%d, %d, %d) over 64 bytes = %d, err %v; want %d, ok=%v",
				tc.rows, tc.cols, tc.unit, got, d.Err(), tc.want, tc.ok)
		}
	}
}

// TestStickyErrorAndFinish: the first failure latches, later reads return
// zero values without moving the cursor, and Finish reports trailing bytes.
func TestStickyErrorAndFinish(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	if d.U64() != 0 || d.Err() == nil {
		t.Fatal("short read did not fail")
	}
	first := d.Err()
	if d.U8() != 0 || d.Take(1) != nil || d.Str() != "" || d.F64s() != nil || d.Area(1, 1, 1) != 0 {
		t.Error("reads after a failure returned data")
	}
	d.Fail("a later failure")
	if d.Err() != first || d.Remaining() != 3 {
		t.Errorf("latched error or cursor moved: %v, %d remaining", d.Err(), d.Remaining())
	}
	if err := d.Finish("pkg: thing"); err == nil || !strings.HasPrefix(err.Error(), "pkg: thing: ") {
		t.Errorf("Finish = %v, want the latched error under the caller's prefix", err)
	}

	d = NewDec([]byte{7, 0xFF})
	d.U8()
	if err := d.Finish("pkg: thing"); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("Finish with an unread byte = %v", err)
	}
	if d.Take(-1) != nil || d.Err() == nil {
		t.Error("negative Take did not fail")
	}
}

// TestGrow: room is made once, contents and length are kept, a buffer with
// room is returned as it is, and a re-made one at least doubles.
func TestGrow(t *testing.T) {
	buf := append(make([]byte, 0, 8), "abc"...)
	if same := Grow(buf, 5); &same[0] != &buf[0] || len(same) != 3 || cap(same) != 8 {
		t.Errorf("Grow re-made a buffer that had room: len %d cap %d", len(same), cap(same))
	}
	if doubled := Grow(buf, 6); string(doubled) != "abc" || cap(doubled) != 16 {
		t.Errorf("Grow(cap 8, len 3, +6) = %q cap %d, want \"abc\" cap 16", doubled, cap(doubled))
	}
	if exact := Grow(buf, 100); string(exact) != "abc" || cap(exact) != 103 {
		t.Errorf("Grow(cap 8, len 3, +100) = %q cap %d, want \"abc\" cap 103", exact, cap(exact))
	}
	if fresh := Grow(nil, 7); len(fresh) != 0 || cap(fresh) != 7 {
		t.Errorf("Grow(nil, 7): len %d cap %d", len(fresh), cap(fresh))
	}
}
