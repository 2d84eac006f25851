// Package binfmt is the one little-endian cursor every binary format in the
// tree is written and read through: the AGSSNAP snapshot payload
// (internal/slam) and the AGSF message payloads (internal/fleet). Fixed-width
// integers, float64 bit patterns preserved exactly, u64 length prefixes on
// everything variable-length. Magic, versioning and checksums are the
// formats' own business; a Dec only ever sees bytes whose checksum already
// verified, but it
// still bounds every read and every allocation by the bytes actually present,
// because a checksum says who wrote the bytes, not that they are sane.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc appends to Buf. It is used by value — Enc{Buf: scratch[:0]} — so an
// encode into a reused buffer allocates nothing once the buffer has reached
// its high-water mark.
type Enc struct {
	Buf []byte
	// counting makes every call add the bytes it would append to n instead of
	// appending them: the sizing pass of a two-pass encode.
	counting bool
	n        int
}

// Counting returns an encoder that writes nothing and only adds up the bytes
// the same calls would append; read the total with Len.
func Counting() Enc { return Enc{counting: true} }

// Len returns the bytes encoded so far: len(Buf), or the running total of a
// counting encoder.
func (e *Enc) Len() int {
	if e.counting {
		return e.n
	}
	return len(e.Buf)
}

// Grow returns buf with room for n more bytes past its length. When it has to
// reallocate it at least doubles the capacity, so a buffer that is reused for
// a payload that keeps getting larger (a session's checkpoint) is re-made
// O(log) times and not once per payload.
//
//ags:hotpath
func Grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) < n {
		grown := make([]byte, len(buf), max(len(buf)+n, 2*cap(buf)))
		copy(grown, buf)
		return grown
	}
	return buf
}

// Raw appends b as is, with no length prefix.
func (e *Enc) Raw(b []byte) {
	if e.counting {
		e.n += len(b)
		return
	}
	e.Buf = append(e.Buf, b...)
}

// U8, U32, U64, I64 and F64 append one fixed-width little-endian value; F64
// writes the float's bit pattern, so NaN payloads and signed zeros survive.
func (e *Enc) U8(v byte) {
	if e.counting {
		e.n++
		return
	}
	e.Buf = append(e.Buf, v)
}

func (e *Enc) U32(v uint32) {
	if e.counting {
		e.n += 4
		return
	}
	e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v)
}

//ags:hotpath
func (e *Enc) U64(v uint64) {
	if e.counting {
		e.n += 8
		return
	}
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v)
}

//ags:hotpath
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

//ags:hotpath
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one byte, 1 or 0.
func (e *Enc) Bool(b bool) {
	if b {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str and Bytes append a u64 length and then the bytes.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	if e.counting {
		e.n += len(s)
		return
	}
	e.Buf = append(e.Buf, s...)
}

func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.Raw(b)
}

// F64s and Bools append a u64 count and then the elements.
//
//ags:hotpath
func (e *Enc) F64s(s []float64) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.F64(v)
	}
}

func (e *Enc) Bools(s []bool) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.Bool(v)
	}
}

// Dec reads a payload front to back. The first failure latches: every later
// read returns a zero value, so decode call sites stay linear and check once,
// with Err or Finish.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a cursor at the start of b. Slices returned by Take and
// Bytes alias b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Fail latches an error (the first one wins). Decoders call it for semantic
// failures — an index out of range, an inconsistent table — so they surface
// through the same Err/Finish as a short read.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Err returns the latched error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the unread byte count.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Take returns the next n bytes, or nil after a failure.
//
//ags:hotpath
func (d *Dec) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Fail("payload exhausted at offset %d (need %d bytes, have %d)", d.off, n, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8, U32, U64, I64, F64 and Bool read what their Enc namesakes wrote (any
// non-zero byte is true).
func (d *Dec) U8() byte {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Dec) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

//ags:hotpath
func (d *Dec) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

//ags:hotpath
func (d *Dec) I64() int64 { return int64(d.U64()) }

//ags:hotpath
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Bool() bool { return d.U8() != 0 }

// Len reads a u64 element count and checks it against the bytes left, unit
// being the fewest bytes one element can encode to. A count the payload cannot
// hold fails here, before the caller sizes an allocation from it.
func (d *Dec) Len(unit int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/max(unit, 1)) {
		d.Fail("length %d exceeds remaining payload (%d bytes)", n, d.Remaining())
		return 0
	}
	return int(n)
}

// Area checks a rows x cols element count read from the payload, unit bytes
// per element at least, against the bytes left, and returns rows*cols. The
// check divides instead of multiplying, so no pair of dimensions can overflow
// past it.
func (d *Dec) Area(rows, cols int64, unit int) int {
	if d.err != nil {
		return 0
	}
	limit := int64(d.Remaining() / max(unit, 1))
	if rows < 0 || cols < 0 || (cols > 0 && rows > limit/cols) {
		d.Fail("size %dx%d exceeds remaining payload (%d bytes)", rows, cols, d.Remaining())
		return 0
	}
	return int(rows * cols)
}

// Str returns a length-prefixed string, copied out of the payload.
func (d *Dec) Str() string { return string(d.Take(d.Len(1))) }

// Bytes returns a length-prefixed byte string aliasing the payload.
func (d *Dec) Bytes() []byte { return d.Take(d.Len(1)) }

// F64s and Bools return nil for a zero count.
func (d *Dec) F64s() []float64 {
	n := d.Len(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

func (d *Dec) Bools() []bool {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}

// Finish closes out a decode of what (say "fleet: open payload"): the latched
// error wins, and unread trailing bytes are an encoder/decoder mismatch, not
// something to ignore.
func (d *Dec) Finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("%s: %w", what, d.err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("%s: %d trailing bytes", what, n)
	}
	return nil
}
