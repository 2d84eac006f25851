package grid

import (
	"crypto/sha256"
	"fmt"

	"ags/internal/binfmt"
	"ags/internal/scene"
	"ags/internal/slam"
)

// Job and job-result payloads ride inside fleet vJob/vJobResult frames, which
// already carry the magic/version/checksum armor — this codec only has to be
// unambiguous and reject trailing or overlong content; it writes and reads
// through internal/binfmt, the cursor the fleet and snapshot payloads share.
//
// A job ships everything a worker needs to reproduce one bench run from
// nothing: the spec's cache identity (for logs and error context), the
// procedural dataset recipe (scene.Config — workers regenerate the sequence
// deterministically rather than shipping frames), and the fully resolved
// slam.Config. Resolution happens on the coordinator because RunSpec
// overrides are functions and cannot cross a wire; the resolved config
// crosses bit-exactly via the slam snapshot codec (slam.AppendConfig).

// Job names one resolved bench execution.
type Job struct {
	// ID is the RunSpec cache identity (sequence/variant/key), carried for
	// logs and error context only — the payload below is self-sufficient.
	ID string
	// Seq is the procedural sequence name (scene.Generate's first argument).
	Seq string
	// Scene is the dataset regeneration recipe.
	Scene scene.Config
	// Cfg is the fully resolved pipeline configuration, variant and override
	// already applied.
	Cfg slam.Config
}

// jobResult is a worker's reply: the finished system's snapshot (AGSSNAP
// bytes, themselves checksummed) plus the Result digest the worker computed
// before encoding. The coordinator restores the snapshot, finishes it, and
// recomputes the digest — a mismatch means the codec, not the run, diverged.
// Worker attribution is not in the payload: the scheduler already knows each
// connection's node from its stats handshake, the node's self-declared name.
type jobResult struct {
	Digest [32]byte
	Snap   []byte
}

func encodeJob(buf []byte, job *Job) []byte {
	e := binfmt.Enc{Buf: buf}
	e.Str(job.ID)
	e.Str(job.Seq)
	e.I64(int64(job.Scene.Width))
	e.I64(int64(job.Scene.Height))
	e.I64(int64(job.Scene.Frames))
	e.I64(job.Scene.Seed)
	e.F64(job.Scene.VFoV)
	e.Bytes(slam.AppendConfig(nil, &job.Cfg))
	return e.Buf
}

func decodeJob(b []byte) (Job, error) {
	d := binfmt.NewDec(b)
	var job Job
	job.ID = d.Str()
	job.Seq = d.Str()
	job.Scene.Width = int(d.I64())
	job.Scene.Height = int(d.I64())
	job.Scene.Frames = int(d.I64())
	job.Scene.Seed = d.I64()
	job.Scene.VFoV = d.F64()
	cfgBytes := d.Bytes()
	if err := d.Finish("grid: job payload"); err != nil {
		return Job{}, err
	}
	cfg, err := slam.DecodeConfig(cfgBytes)
	if err != nil {
		return Job{}, fmt.Errorf("grid: job %s: %w", job.ID, err)
	}
	job.Cfg = cfg
	return job, nil
}

func encodeJobResult(buf []byte, r *jobResult) []byte {
	e := binfmt.Enc{Buf: buf}
	e.Raw(r.Digest[:])
	e.Bytes(r.Snap)
	return e.Buf
}

func decodeJobResult(b []byte) (jobResult, error) {
	d := binfmt.NewDec(b)
	var r jobResult
	copy(r.Digest[:], d.Take(sha256.Size))
	r.Snap = d.Bytes()
	return r, d.Finish("grid: job-result payload")
}
