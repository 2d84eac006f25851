package slam

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"ags/internal/hw/trace"
	"ags/internal/vecmath"
)

// Digest returns a SHA-256 over everything a run's determinism contract
// covers: the estimated and ground-truth trajectories, every per-frame
// algorithm decision, the live Gaussian map, and the per-frame workload
// scalars of the trace. Two runs of the same frames are equivalent exactly
// when their digests match, so the cross-session regression tests, the
// benchmark and ags-slam -sessions compare digests instead of walking the
// structures.
//
// The map hash covers every Gaussian in ID order. A prune keeps the
// survivors' order, so the hash does not depend on when Gaussians were
// removed (TestPruneDigestPinned).
func (r *Result) Digest() [32]byte {
	h := &digester{h: sha256.New()}
	h.u64(uint64(len(r.Sequence))) // length-prefix every variable-length field
	h.h.Write([]byte(r.Sequence))
	h.poses(r.Poses)
	h.poses(r.GT)
	h.u64(uint64(len(r.Info)))
	for _, inf := range r.Info {
		h.f64(float64(inf.Covisibility))
		h.f64(float64(inf.KeyCovisibility))
		h.flag(inf.IsKeyFrame)
		h.flag(inf.CoarseOnly)
		h.u64(uint64(inf.RefineIters))
		h.f64(inf.FPRate)
		h.flag(inf.FPValid)
	}
	h.u64(uint64(r.Cloud.Len()))
	for id := range r.Cloud.Gaussians {
		g := r.Cloud.At(id)
		// The identity rotation and three copies of the isotropic
		// log-scale, as when the Gaussians stored them, so that the
		// digest of a run stays what it was.
		h.vec3(g.Mean)
		h.vec3(vecmath.Vec3{X: g.LogScale, Y: g.LogScale, Z: g.LogScale})
		h.f64(1)
		h.vec3(vecmath.Vec3{})
		h.vec3(g.Color)
		h.f64(g.Logit)
	}
	h.u64(uint64(len(r.Trace.Frames)))
	for i := range r.Trace.Frames {
		ft := &r.Trace.Frames[i]
		h.f64(ft.Covisibility)
		h.flag(ft.IsKeyFrame)
		h.flag(ft.CoarseOnly)
		h.u64(uint64(ft.CodecSADOps))
		h.u64(uint64(ft.CoarseMACs))
		h.u64(uint64(ft.NumGaussians))
		h.u64(uint64(ft.SkippedGaussians))
		h.stats(&ft.Track)
		h.stats(&ft.Map)
	}
	var out [32]byte
	h.h.Sum(out[:0])
	return out
}

// digester feeds a hash through one scratch buffer: a value written through
// the hash.Hash interface escapes, so a fresh buffer per value would be a
// heap allocation per field of every Gaussian.
type digester struct {
	h hash.Hash
	b [8]byte
}

func (h *digester) stats(s *trace.RenderStats) {
	h.u64(uint64(s.Iters))
	h.u64(uint64(s.AlphaOps))
	h.u64(uint64(s.BlendOps))
	h.u64(uint64(s.BackwardOps))
	h.u64(uint64(s.Splats))
	h.u64(uint64(s.TileEntries))
	h.u64(uint64(s.Pixels))
}

func (h *digester) poses(poses []vecmath.Pose) {
	h.u64(uint64(len(poses)))
	for _, p := range poses {
		h.f64(p.R.W)
		h.vec3(vecmath.Vec3{X: p.R.X, Y: p.R.Y, Z: p.R.Z})
		h.vec3(p.T)
	}
}

func (h *digester) vec3(v vecmath.Vec3) {
	h.f64(v.X)
	h.f64(v.Y)
	h.f64(v.Z)
}

func (h *digester) f64(v float64) {
	h.u64(math.Float64bits(v))
}

func (h *digester) flag(b bool) {
	h.b[0] = 0
	if b {
		h.b[0] = 1
	}
	h.h.Write(h.b[:1])
}

func (h *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.b[:], v)
	h.h.Write(h.b[:])
}
