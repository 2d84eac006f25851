package trace

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Packed is an immutable-length sequence of int32 stored at the narrowest
// fixed width (1, 2 or 4 bytes per element, little-endian) that holds its
// largest element read as unsigned: values up to 255 take one byte, up to
// 65535 two, and anything larger, or negative, four. Element i is still one
// indexed load (At), and the bytes are what a snapshot writes, as they are
// (Raw, FromRaw). The zero value is the empty sequence at width 1.
//
// The representative-iteration detail of a trace is Packed: at 64x48 its
// per-pixel counts and Gaussian IDs all fit in two bytes.
type Packed struct {
	b     []byte
	shift uint8 // the element width is 1<<shift bytes
}

// shiftFor returns the width shift for a largest element v (as unsigned).
func shiftFor(v uint32) uint8 {
	switch {
	case v <= math.MaxUint8:
		return 0
	case v <= math.MaxUint16:
		return 1
	}
	return 2
}

// Pack returns s at its narrowest width. It makes one allocation, none for
// an empty s.
func Pack(s []int32) Packed {
	return PackFunc(len(s), func(i int) int32 { return s[i] })
}

// PackFunc packs the n elements at(0), ..., at(n-1), calling at twice per
// element: once to find the width and once to store. It makes one allocation,
// none for n == 0, so a caller can pack a sequence it never materialises.
func PackFunc(n int, at func(i int) int32) Packed {
	if n == 0 {
		return Packed{}
	}
	var hi uint32
	for i := range n {
		hi = max(hi, uint32(at(i)))
	}
	shift := shiftFor(hi)
	p := Packed{b: make([]byte, n<<shift), shift: shift}
	for i := range n {
		p.set(i, at(i))
	}
	return p
}

// set stores v at i; v must fit the width.
func (p Packed) set(i int, v int32) {
	switch p.shift {
	case 0:
		p.b[i] = byte(v)
	case 1:
		binary.LittleEndian.PutUint16(p.b[2*i:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(p.b[4*i:], uint32(v))
	}
}

// Len returns the number of elements.
func (p Packed) Len() int { return len(p.b) >> p.shift }

// Width returns the bytes per element: 1, 2 or 4.
func (p Packed) Width() int { return 1 << p.shift }

// At returns element i.
func (p Packed) At(i int) int32 {
	switch p.shift {
	case 0:
		return int32(p.b[i])
	case 1:
		return int32(binary.LittleEndian.Uint16(p.b[2*i:]))
	}
	return int32(binary.LittleEndian.Uint32(p.b[4*i:]))
}

// AppendTo appends every element to dst and returns the extended slice.
func (p Packed) AppendTo(dst []int32) []int32 {
	for i := range p.Len() {
		dst = append(dst, p.At(i))
	}
	return dst
}

// Raw returns the element bytes, which alias p: Len()*Width() of them.
func (p Packed) Raw() []byte { return p.b }

// FromRaw returns the sequence whose element bytes at the given width are
// raw, as Raw returned them. It copies raw. A width other than 1, 2 or 4, or
// a raw length that is not a whole number of elements, is an error.
func FromRaw(width int, raw []byte) (Packed, error) {
	var shift uint8
	switch width {
	case 1:
	case 2:
		shift = 1
	case 4:
		shift = 2
	default:
		return Packed{}, fmt.Errorf("trace: packed width %d is not 1, 2 or 4", width)
	}
	if len(raw)%width != 0 {
		return Packed{}, fmt.Errorf("trace: %d bytes are not whole %d-byte elements", len(raw), width)
	}
	if len(raw) == 0 {
		return Packed{}, nil
	}
	return Packed{b: append([]byte(nil), raw...), shift: shift}, nil
}

// Remap replaces every element v with 0 <= v < len(remap) by remap[v] and
// leaves the others as they are. It rewrites p in place when the new values
// fit its width, and repacks it (one allocation) when one does not.
func (p *Packed) Remap(remap []int32) {
	mapped := func(i int) int32 {
		v := p.At(i)
		if v >= 0 && int(v) < len(remap) {
			return remap[v]
		}
		return v
	}
	var hi uint32
	for i := range p.Len() {
		hi = max(hi, uint32(mapped(i)))
	}
	if shiftFor(hi) > p.shift {
		*p = PackFunc(p.Len(), mapped)
		return
	}
	for i := range p.Len() {
		p.set(i, mapped(i))
	}
}
