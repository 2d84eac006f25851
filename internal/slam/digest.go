package slam

import (
	"crypto/sha256"

	"ags/internal/binfmt"
)

// Digest returns a SHA-256 over everything a run's determinism contract
// covers: the sequence name, the frame count, the hash chain every frame's
// record was folded into when its tail joined (its estimated and
// ground-truth poses, its algorithm decisions and its trace scalars; see
// System.fold), and the live Gaussian map. Two runs of the same frames are
// equivalent exactly when their digests match, so the cross-session
// regression tests, the benchmark and ags-slam -sessions compare digests
// instead of walking the structures, and a serving session, which keeps no
// per-frame history, digests the same as an offline run.
//
// The map hash covers every Gaussian in ID order, each as a snapshot encodes
// it (TestPruneDigestPinned).
func (r *Result) Digest() [32]byte {
	h := sha256.New()
	e := binfmt.Enc{Buf: make([]byte, 0, 64)}
	e.Str(r.Sequence)
	e.U64(uint64(r.Frames))
	e.Raw(r.chain[:])
	e.U64(uint64(r.Cloud.Len()))
	h.Write(e.Buf)
	for i := range r.Cloud.Gaussians {
		e.Buf = e.Buf[:0]
		encodeGaussian(&e, &r.Cloud.Gaussians[i])
		h.Write(e.Buf)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
