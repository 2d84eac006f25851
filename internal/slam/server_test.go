package slam

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ags/internal/scene"
)

// directRun drives a standalone System over the sequence and closes it.
func directRun(t *testing.T, cfg Config, seq *scene.Sequence) *Result {
	t.Helper()
	sys := New(cfg, seq.Intr)
	defer sys.Close()
	for _, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return sys.Finish(seq.Name)
}

// sessionRun streams the sequence through one session of srv.
func sessionRun(t *testing.T, srv *Server, cfg Config, seq *scene.Sequence) *Result {
	t.Helper()
	sess, err := srv.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames {
		if err := sess.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

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
	for i := range want.Trace.Frames {
		w, g := &want.Trace.Frames[i], &got.Trace.Frames[i]
		if w.Covisibility != g.Covisibility || w.KeyCovisibility != g.KeyCovisibility ||
			w.IsKeyFrame != g.IsKeyFrame || w.CoarseOnly != g.CoarseOnly || w.Track.Iters != g.Track.Iters {
			t.Errorf("frame %d: decisions (FC %v, key FC %v, key %v, coarse-only %v, %d refine iterations) != (%v, %v, %v, %v, %d)", i,
				g.Covisibility, g.KeyCovisibility, g.IsKeyFrame, g.CoarseOnly, g.Track.Iters,
				w.Covisibility, w.KeyCovisibility, w.IsKeyFrame, w.CoarseOnly, w.Track.Iters)
		}
		if w.CodecSADOps != g.CodecSADOps {
			t.Errorf("frame %d: CodecSADOps %d != %d", i, g.CodecSADOps, w.CodecSADOps)
		}
	}
}

// TestSessionMatchesDirectSystem: a session, which keeps no per-frame
// history, closes on the frame count, digest and ATE of a direct System run,
// which does.
func TestSessionMatchesDirectSystem(t *testing.T) {
	seq := testSeq(t, "Desk", 6)
	t.Run("serial", func(t *testing.T) {
		cfg := fastAGS(tw, th)
		want := directRun(t, cfg, seq)
		got := sessionRun(t, NewServer(ServerConfig{}), cfg, seq)
		if got.Frames != len(seq.Frames) || want.Frames != got.Frames {
			t.Errorf("frame counts %d (session) and %d (direct), want %d", got.Frames, want.Frames, len(seq.Frames))
		}
		if want.Digest() != got.Digest() {
			t.Error("session digest diverged from direct System run")
		}
		wantATE, err := want.ATERMSECm()
		if err != nil {
			t.Fatal(err)
		}
		if gotATE, err := got.ATERMSECm(); err != nil || gotATE != wantATE {
			t.Errorf("session ATE %v (%v), direct %v", gotATE, err, wantATE)
		}
		if got.Poses != nil || got.Trace.Frames != nil {
			t.Errorf("the session kept %d poses and %d trace frames", len(got.Poses), len(got.Trace.Frames))
		}
	})
}

// TestConcurrentSessionsMatchSequential is the cross-session determinism
// regression: N live sessions interleaving on one server — with a context
// pool deliberately smaller than the session count, so contexts recycle
// across streams mid-sequence — must produce per-sequence Results bitwise
// identical to N sequential runs.
func TestConcurrentSessionsMatchSequential(t *testing.T) {
	names := []string{"Desk", "Xyz", "Room"}
	cfg := fastAGS(tw, th)

	want := make(map[string][32]byte)
	for _, name := range names {
		seq := testSeq(t, name, 6)
		res, err := Run(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res.Digest()
	}

	srv := NewServer(ServerConfig{ContextCapacity: 1}) // force cross-session recycling
	var wg sync.WaitGroup
	got := make([][32]byte, len(names))
	errs := make([]error, len(names))
	for i, name := range names {
		seq := testSeq(t, name, 6)
		wg.Add(1)
		go func(i int, seq *scene.Sequence) {
			defer wg.Done()
			res, err := srv.Run(cfg, seq)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Digest()
		}(i, seq)
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("session %s: %v", name, errs[i])
		}
		if got[i] != want[name] {
			t.Errorf("session %s: concurrent digest diverged from sequential run", name)
		}
	}
	st := srv.PoolStats()
	if st.Idle > st.Capacity {
		t.Errorf("pool idle %d exceeds capacity %d", st.Idle, st.Capacity)
	}
	if st.Hits == 0 {
		t.Error("no pool hits across three sessions — per-step recycling broken")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// isMismatch checks that a session call failed with the frame-size error of a
// frame that does not fit the camera.
func isMismatch(t *testing.T, op string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "does not match camera") {
		t.Errorf("%s error = %v, want frame-size mismatch", op, err)
	}
}

// A frame the system rejects fails the Push that carried it, and from then on
// every Push and Close reports the same error.
func TestSessionErrorSurfacesOnPushAndClose(t *testing.T) {
	seq := testSeq(t, "Desk", 2)
	wrong := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 2, Seed: 1})
	srv := NewServer(ServerConfig{})
	sess, err := srv.Open(seq.Name, fastAGS(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	isMismatch(t, "mismatched Push", sess.Push(wrong.Frames[0]))
	for i := 0; i < 2; i++ {
		isMismatch(t, "later Push", sess.Push(seq.Frames[i]))
	}
	res, err := sess.Close()
	isMismatch(t, "Close", err)
	if res != nil {
		t.Error("failed session returned a Result")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("the failed session is still open after Close: %v", err)
	}
}

// A failed session answers every later call at once: each snapshot gets the
// session's error with dst untouched, and pushes behind it fail the same way.
func TestSnapshotOnFailedSessionErrsAndNeverBlocks(t *testing.T) {
	seq := testSeq(t, "Desk", 2)
	wrong := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1})
	sess, err := NewServer(ServerConfig{}).Open(seq.Name, fastAGS(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		isMismatch(t, "mismatched Push", sess.Push(wrong.Frames[0]))
		dst := []byte("kept")
		for i := 0; i < 2; i++ {
			out, err := sess.AppendSnapshot(dst, nil)
			isMismatch(t, "AppendSnapshot", err)
			if string(out) != "kept" {
				t.Errorf("snapshot %d returned %d bytes, want dst untouched", i, len(out))
			}
			isMismatch(t, "later Push", sess.Push(seq.Frames[0]))
		}
		if res, err := sess.Close(); err == nil || res != nil {
			t.Errorf("Close = (%v, %v), want the session's error", res, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("producer blocked on a failed session")
	}
}

func TestSessionPushAfterCloseFails(t *testing.T) {
	seq := testSeq(t, "Desk", 2)
	srv := NewServer(ServerConfig{})
	sess, err := srv.Open(seq.Name, fastAGS(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(seq.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(seq.Frames[1]); err == nil {
		t.Error("push after Close succeeded")
	}
	// Close is idempotent: the second call returns the same result.
	res, err := sess.Close()
	if err != nil || res == nil {
		t.Errorf("second Close = (%v, %v)", res, err)
	}
}

// TestSystemCloseReleasesContextToPool: a system holds no context between
// calls, its pending tail included; Close runs that tail on a context it
// draws from the pool (a hit) and hands back; it is idempotent, and the
// system stays usable.
func TestSystemCloseReleasesContextToPool(t *testing.T) {
	seq := testSeq(t, "Desk", 3)
	srv := NewServer(ServerConfig{ContextCapacity: 4})
	sys := newSystem(fastAGS(tw, th), seq.Intr, srv.ContextPool(), offline)
	for _, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.PoolStats()
	if st.Idle != 2 || st.Misses != 2 {
		t.Fatalf("idle=%d of %d made with the last tail pending, want both contexts idle (tracking and mapping)", st.Idle, st.Misses)
	}
	sys.Close()
	if after := srv.PoolStats(); after.Idle != 2 || after.Misses != 2 || after.Hits != st.Hits+1 {
		t.Fatalf("after Close: idle=%d misses=%d hits=%d, want the pending tail run on an idle context and returned", after.Idle, after.Misses, after.Hits)
	}
	sys.Close() // idempotent
	if after := srv.PoolStats(); after.Idle != 2 || after.Hits != st.Hits+1 {
		t.Fatalf("idle=%d hits=%d after double Close, want nothing drawn", after.Idle, after.Hits)
	}
	// The system is still usable: the next frame draws from the pool (a
	// hit). Frame 0 re-processed out of order is fine here; the pipeline
	// accepts any validated frame.
	if err := sys.ProcessFrame(seq.Frames[0]); err != nil {
		t.Fatalf("ProcessFrame after Close: %v", err)
	}
	if after := srv.PoolStats(); after.Misses != 2 || after.Idle != 2 {
		t.Errorf("ProcessFrame after Close: misses=%d idle=%d, want the pool's contexts reused and back", after.Misses, after.Idle)
	}
	sys.Close()
}

func TestServerLifecycle(t *testing.T) {
	seq := testSeq(t, "Desk", 1)
	srv := NewServer(ServerConfig{})
	sess, err := srv.Open(seq.Name, fastCfg(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err == nil {
		t.Error("server Close succeeded with an open session")
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(seq.Name, fastCfg(tw, th), seq.Intr); err == nil {
		t.Error("Open succeeded on a closed server")
	}
}

func TestResultDigestDistinguishesRuns(t *testing.T) {
	seq := testSeq(t, "Desk", 4)
	a, err := Run(fastAGS(tw, th), seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastAGS(tw, th), seq)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Error("identical runs digest differently")
	}
	c, err := Run(fastCfg(tw, th), seq)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Error("AGS and baseline runs digest identically")
	}
}
