package slam

import (
	"ags/internal/binfmt"
	"ags/internal/camera"
	"ags/internal/frame"
)

// Binary transport helpers for the fleet layer (internal/fleet): the wire
// protocol ships configurations, camera intrinsics and RGB-D frames between
// hosts, and these wrappers expose the snapshot codec's encoders for those
// pieces so the field lists live in exactly one place (snapshot.go). The
// encoding is the snapshot payload encoding (internal/binfmt's cursor:
// little-endian, length-prefixed slices, float64 bit patterns preserved
// exactly), so a frame pushed through the wire is byte-identical to one pushed
// in process, and Result digests cannot diverge across the network boundary.
// Framing, versioning and checksumming are the transport's job (see fleet's
// message format), not these helpers'.

// AppendConfig appends the binary encoding of c to buf and returns the
// extended slice.
func AppendConfig(buf []byte, c *Config) []byte {
	e := binfmt.Enc{Buf: buf}
	encodeConfig(&e, c)
	return e.Buf
}

// DecodeConfig decodes a configuration produced by AppendConfig. The whole
// input must be consumed.
func DecodeConfig(b []byte) (Config, error) {
	d := binfmt.NewDec(b)
	var c Config
	decodeConfig(d, &c)
	return c, d.Finish("slam: config decode")
}

// AppendIntrinsics appends the binary encoding of in to buf.
func AppendIntrinsics(buf []byte, in *camera.Intrinsics) []byte {
	e := binfmt.Enc{Buf: buf}
	encodeIntrinsics(&e, in)
	return e.Buf
}

// DecodeIntrinsics decodes intrinsics produced by AppendIntrinsics.
func DecodeIntrinsics(b []byte) (camera.Intrinsics, error) {
	d := binfmt.NewDec(b)
	var in camera.Intrinsics
	decodeIntrinsics(d, &in)
	return in, d.Finish("slam: intrinsics decode")
}

// AppendFrame appends the binary encoding of one RGB-D frame to buf. A
// steadily pushing producer reuses its buffer (buf[:0]), so the per-frame
// encode allocates only until the buffer reaches its high-water mark. A
// counting pass sizes the encoding first, so buf grows at most once per call
// (binfmt.Grow) and not through the dozen re-makes that thousands of 8-byte
// appends would cost.
func AppendFrame(buf []byte, f *frame.Frame) []byte {
	size := binfmt.Counting()
	encodeFrame(&size, f)
	e := binfmt.Enc{Buf: binfmt.Grow(buf, size.Len())}
	encodeFrame(&e, f)
	return e.Buf
}

// DecodeFrame decodes a frame produced by AppendFrame into freshly allocated
// storage (the pipeline retains frames, so they must not alias transport
// buffers). The whole input must be consumed.
func DecodeFrame(b []byte) (*frame.Frame, error) {
	d := binfmt.NewDec(b)
	f := decodeFrame(d)
	if err := d.Finish("slam: frame decode"); err != nil {
		return nil, err
	}
	return f, nil
}
