package trace

import (
	"encoding/binary"
	"math"
)

// Packed is an immutable sequence of int32 stored at the narrowest
// fixed width (1, 2 or 4 bytes per element, little-endian) that holds its
// largest element read as unsigned: values up to 255 take one byte, up to
// 65535 two, and anything larger, or negative, four. Element i is still one
// indexed load (At). It is written once, by PackFunc. The zero value is the
// empty sequence at width 1.
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
