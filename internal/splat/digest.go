package splat

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"ags/internal/vecmath"
)

// Digest returns a SHA-256 over every output buffer the determinism contract
// covers: color, depth, silhouette, per-pixel workload
// counters, the contribution log, and the AlphaOps/BlendOps totals. Two
// Results are byte-identical exactly when their digests are equal, so tests
// and benches compare digests instead of walking buffers.
func (r *Result) Digest() [32]byte {
	h := sha256.New()
	hashInt(h, r.Color.W)
	hashInt(h, r.Color.H)
	hashVec3s(h, r.Color.Pix)
	hashF64s(h, r.Depth.D)
	hashF64s(h, r.Silhouette)
	hashI32s(h, r.PerPixelAlpha)
	hashI32s(h, r.PerPixelBlend)
	hashI32s(h, r.NonContrib)
	hashI32s(h, r.Touched)
	hashInt(h, int(r.AlphaOps))
	hashInt(h, int(r.BlendOps))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Digest returns a SHA-256 over the backward pass's outputs: all gradient
// buffers, the pose twist, the loss, and the masked pixel count.
func (g *Grads) Digest() [32]byte {
	h := sha256.New()
	hashVec3s(h, g.Mean)
	hashVec3s(h, g.Color)
	hashF64s(h, g.Logit)
	hashF64s(h, g.LogScale)
	hashF64(h, g.Pose.V.X)
	hashF64(h, g.Pose.V.Y)
	hashF64(h, g.Pose.V.Z)
	hashF64(h, g.Pose.W.X)
	hashF64(h, g.Pose.W.Y)
	hashF64(h, g.Pose.W.Z)
	hashF64(h, g.Loss)
	hashInt(h, g.Pixels)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func hashInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashF64(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashF64s(h hash.Hash, v []float64) {
	hashInt(h, len(v))
	for _, x := range v {
		hashF64(h, x)
	}
}

func hashVec3s(h hash.Hash, v []vecmath.Vec3) {
	hashInt(h, len(v))
	for i := range v {
		hashF64(h, v[i].X)
		hashF64(h, v[i].Y)
		hashF64(h, v[i].Z)
	}
}

func hashI32s(h hash.Hash, v []int32) {
	hashInt(h, len(v))
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
}
