package slam

import "testing"

// assertSameRun checks that two runs are indistinguishable in everything the
// CODEC frontend influences: poses, per-frame covisibility decisions, and
// the modeled CODEC work in the trace.
func assertSameRun(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Poses) != len(got.Poses) {
		t.Fatalf("pose count %d != %d", len(got.Poses), len(want.Poses))
	}
	for i := range want.Poses {
		if want.Poses[i] != got.Poses[i] {
			t.Errorf("frame %d: pose %+v != %+v", i, got.Poses[i], want.Poses[i])
		}
	}
	for i := range want.Info {
		w, g := want.Info[i], got.Info[i]
		if w.Covisibility != g.Covisibility || w.KeyCovisibility != g.KeyCovisibility ||
			w.IsKeyFrame != g.IsKeyFrame || w.CoarseOnly != g.CoarseOnly || w.RefineIters != g.RefineIters {
			t.Errorf("frame %d: info %+v != %+v", i, g, w)
		}
	}
	for i := range want.Trace.Frames {
		if want.Trace.Frames[i].CodecSADOps != got.Trace.Frames[i].CodecSADOps {
			t.Errorf("frame %d: CodecSADOps %d != %d", i,
				got.Trace.Frames[i].CodecSADOps, want.Trace.Frames[i].CodecSADOps)
		}
	}
}

// These equivalence tests run the splat renderer fully parallel: its tile
// sharding is deterministic (static tile ranges + ordered merge, see package
// splat), so any Workers/CodecWorkers combination must reproduce the serial
// reference bit for bit — no Workers=1 pin needed.

func TestPipelinedFrontendMatchesSerial(t *testing.T) {
	seq := testSeq(t, "Desk", 8)
	cfg := fastAGS(tw, th)
	serial, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.PipelineME = true
	pcfg.CodecWorkers = 4
	pipelined, err := Run(pcfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, serial, pipelined)
}

func TestPipelinedBaselineMatchesSerial(t *testing.T) {
	// The baseline pipeline also consumes covisibility (key-frame anchoring),
	// so the prefetch path must be equivalent there too.
	seq := testSeq(t, "Xyz", 6)
	cfg := fastCfg(tw, th)
	serial, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.PipelineME = true
	pcfg.CodecWorkers = 3
	pipelined, err := Run(pcfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, serial, pipelined)
}

func TestMismatchedPrefetchFallsBack(t *testing.T) {
	// A speculative prefetch for a frame that never arrives must be ignored
	// and the synchronous path must produce the usual result.
	seq := testSeq(t, "Desk", 4)
	cfg := fastAGS(tw, th)
	want, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(cfg, seq.Intr)
	// Wrong successor: ME(f0, f2) is launched but ProcessFrame(f1) needs
	// ME(f0, f1); then a matching prefetch for the last step.
	sys.Prefetch(seq.Frames[0], seq.Frames[2])
	if err := sys.ProcessFrame(seq.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.ProcessFrame(seq.Frames[1]); err != nil {
		t.Fatal(err)
	}
	sys.Prefetch(seq.Frames[2], seq.Frames[3])
	if err := sys.ProcessFrame(seq.Frames[2]); err != nil {
		t.Fatal(err)
	}
	if err := sys.ProcessFrame(seq.Frames[3]); err != nil {
		t.Fatal(err)
	}
	got := sys.Finish(seq.Name)
	assertSameRun(t, want, got)
}

// TestPipelineDeterminismFullParallel is the system-level regression test for
// the deterministic sharding contract: a pipelined-prefetch run with a
// multi-worker CODEC pool *and* a multi-worker renderer must be bit-identical
// to the synchronous run — and the render worker count itself (3 vs 7 here)
// must not leak into poses, decisions, or the trace.
func TestPipelineDeterminismFullParallel(t *testing.T) {
	seq := testSeq(t, "Desk", 8)
	cfg := fastAGS(tw, th)
	cfg.Workers = 3
	sync, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.PipelineME = true
	pcfg.CodecWorkers = 4
	pcfg.Workers = 7
	pipelined, err := Run(pcfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, sync, pipelined)
}

func TestPrefetchNilFramesAreNoOps(t *testing.T) {
	seq := testSeq(t, "Desk", 2)
	sys := New(fastAGS(tw, th), seq.Intr)
	sys.Prefetch(nil, seq.Frames[1])
	sys.Prefetch(seq.Frames[0], nil)
	if len(sys.pending) != 0 {
		t.Errorf("nil prefetch queued %d jobs", len(sys.pending))
	}
}
