package fleet

import (
	"ags/internal/binfmt"
	"ags/internal/splat"
)

// NodeStats is one node's self-report: the placement inputs (open sessions,
// pool counters) plus the admission budgets, polled by routers over the
// control connection before every placement decision and surfaced by the
// ags-fleet CLI.
type NodeStats struct {
	// Name is the node's configured identity.
	Name string
	// OpenSessions counts the fleet-admitted live streams on the node.
	OpenSessions int
	// Draining reports whether the node has been asked to drain.
	Draining bool
	// MaxSessions and MaxResidentBytes echo the node's admission budgets
	// (0 = unlimited).
	MaxSessions      int
	MaxResidentBytes int64
	// Pool snapshots the underlying slam.Server's render-context pool — the
	// residency signal placement and admission run on.
	Pool splat.PoolStats
}

func encodeStats(buf []byte, st *NodeStats) []byte {
	e := binfmt.Enc{Buf: buf}
	e.Str(st.Name)
	e.I64(int64(st.OpenSessions))
	e.Bool(st.Draining)
	e.I64(int64(st.MaxSessions))
	e.I64(st.MaxResidentBytes)
	e.I64(int64(st.Pool.Capacity))
	e.I64(int64(st.Pool.Idle))
	e.U64(st.Pool.Hits)
	e.U64(st.Pool.Misses)
	e.U64(st.Pool.Evictions)
	e.I64(st.Pool.ResidentBytes)
	return e.Buf
}

func decodeStats(b []byte) (NodeStats, error) {
	d := binfmt.NewDec(b)
	var st NodeStats
	st.Name = d.Str()
	st.OpenSessions = int(d.I64())
	st.Draining = d.Bool()
	st.MaxSessions = int(d.I64())
	st.MaxResidentBytes = d.I64()
	st.Pool.Capacity = int(d.I64())
	st.Pool.Idle = int(d.I64())
	st.Pool.Hits = d.U64()
	st.Pool.Misses = d.U64()
	st.Pool.Evictions = d.U64()
	st.Pool.ResidentBytes = d.I64()
	return st, d.Finish("fleet: stats payload")
}

// ResultSummary is the close reply: the full Result stays on the node (maps
// are large), what crosses the wire is the digest — the complete determinism
// contract in 32 bytes, bit-comparable against a local slam.Run — plus the
// two counts ags-fleet route prints beside it.
type ResultSummary struct {
	// Digest is slam's Result.Digest of the finished session: trajectories,
	// per-frame decisions, the full Gaussian map, trace workload scalars.
	Digest [32]byte
	// Frames is how many frames the session processed.
	Frames int
	// NumGaussians is the map size at close.
	NumGaussians int
}

func encodeResult(buf []byte, r *ResultSummary) []byte {
	e := binfmt.Enc{Buf: buf}
	e.Raw(r.Digest[:])
	e.I64(int64(r.Frames))
	e.I64(int64(r.NumGaussians))
	return e.Buf
}

func decodeResult(b []byte) (ResultSummary, error) {
	d := binfmt.NewDec(b)
	var r ResultSummary
	copy(r.Digest[:], d.Take(len(r.Digest)))
	r.Frames = int(d.I64())
	r.NumGaussians = int(d.I64())
	return r, d.Finish("fleet: result payload")
}
