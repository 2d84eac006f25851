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
	h := sha256.New()
	hashU64(h, uint64(len(r.Sequence))) // length-prefix every variable-length field
	h.Write([]byte(r.Sequence))
	hashPoses(h, r.Poses)
	hashPoses(h, r.GT)
	hashU64(h, uint64(len(r.Info)))
	for _, inf := range r.Info {
		hashF64(h, float64(inf.Covisibility))
		hashF64(h, float64(inf.KeyCovisibility))
		hashBool(h, inf.IsKeyFrame)
		hashBool(h, inf.CoarseOnly)
		hashU64(h, uint64(inf.RefineIters))
		hashF64(h, inf.FPRate)
		hashBool(h, inf.FPValid)
	}
	hashU64(h, uint64(r.Cloud.Len()))
	for id := range r.Cloud.Gaussians {
		g := r.Cloud.At(id)
		// The identity rotation and three copies of the isotropic
		// log-scale, as when the Gaussians stored them, so that the
		// digest of a run stays what it was.
		hashVec3(h, g.Mean)
		hashVec3(h, vecmath.Vec3{X: g.LogScale, Y: g.LogScale, Z: g.LogScale})
		hashF64(h, 1)
		hashVec3(h, vecmath.Vec3{})
		hashVec3(h, g.Color)
		hashF64(h, g.Logit)
	}
	hashU64(h, uint64(len(r.Trace.Frames)))
	for i := range r.Trace.Frames {
		ft := &r.Trace.Frames[i]
		hashF64(h, ft.Covisibility)
		hashBool(h, ft.IsKeyFrame)
		hashBool(h, ft.CoarseOnly)
		hashU64(h, uint64(ft.CodecSADOps))
		hashU64(h, uint64(ft.CoarseMACs))
		hashU64(h, uint64(ft.NumGaussians))
		hashU64(h, uint64(ft.SkippedGaussians))
		hashStats(h, &ft.Track)
		hashStats(h, &ft.Map)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func hashStats(h hash.Hash, s *trace.RenderStats) {
	hashU64(h, uint64(s.Iters))
	hashU64(h, uint64(s.AlphaOps))
	hashU64(h, uint64(s.BlendOps))
	hashU64(h, uint64(s.BackwardOps))
	hashU64(h, uint64(s.Splats))
	hashU64(h, uint64(s.TileEntries))
	hashU64(h, uint64(s.Pixels))
}

func hashPoses(h hash.Hash, poses []vecmath.Pose) {
	hashU64(h, uint64(len(poses)))
	for _, p := range poses {
		hashF64(h, p.R.W)
		hashVec3(h, vecmath.Vec3{X: p.R.X, Y: p.R.Y, Z: p.R.Z})
		hashVec3(h, p.T)
	}
}

func hashVec3(h hash.Hash, v vecmath.Vec3) {
	hashF64(h, v.X)
	hashF64(h, v.Y)
	hashF64(h, v.Z)
}

func hashF64(h hash.Hash, v float64) {
	hashU64(h, math.Float64bits(v))
}

func hashBool(h hash.Hash, b bool) {
	if b {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
