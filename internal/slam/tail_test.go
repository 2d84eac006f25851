package slam

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ags/internal/frame"
	"ags/internal/scene"
	"ags/internal/vecmath"
)

// The tests of the mapping tail (see System and ProcessFrame): what every join
// point sees, that a standalone system runs nothing behind its caller's back,
// that a rejected frame neither waits for nor disturbs a tail in flight, that
// a tail's panic comes back on the caller's goroutine, and that the schedule
// is the same computation on one processor. CI runs the Tail|JoinPoint tests
// under -race -count=5 as a step of their own.

// tailCfgs are the configurations the tail tests cover: the three mapping
// paths (selective, key-frame, baseline), the coarse-only variant whose front
// is the whole of tracking, the false-positive measurement that renders in the
// middle, and one whose prunes remove Gaussians inside tails of a short run.
func tailCfgs() []struct {
	name string
	cfg  Config
} {
	coarse := fastAGS(tw, th)
	coarse.ForceCoarseOnly = true
	fp := fastAGS(tw, th)
	fp.EvalFPRate = true
	return []struct {
		name string
		cfg  Config
	}{
		{"ags", fastAGS(tw, th)},
		{"baseline", fastCfg(tw, th)},
		{"coarse-only", coarse},
		{"fp-rate", fp},
		{"prune", pruneCfg(tw, th)},
	}
}

// joinedReference drives a system one frame at a time with a join after each,
// which is the serial schedule, and returns its snapshot after every frame
// and its final Result.
func joinedReference(t *testing.T, cfg Config, seq *scene.Sequence) ([][]byte, *Result) {
	t.Helper()
	sys := New(cfg, seq.Intr)
	defer sys.Close()
	snaps := make([][]byte, len(seq.Frames))
	for i, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
		sys.join()
		if sys.tail != nil {
			t.Fatal("join left a tail behind")
		}
		snaps[i] = sys.AppendSnapshot(nil, nil)
	}
	return snaps, sys.Finish(seq.Name)
}

// TestJoinPointMatrix: whatever reads the map straight after ProcessFrame
// sees the frame mapped. A snapshot taken after every ProcessFrame, with that
// frame's tail still pending, is byte for byte the serial schedule's; so is the
// final snapshot of a run whose frames went back to back (every front beside
// the previous tail), which carries every frame's pose, decisions and trace;
// and Mapper, Finish and Close each join.
func TestJoinPointMatrix(t *testing.T) {
	seq := testSeq(t, "Desk", 8)
	for _, tc := range tailCfgs() {
		t.Run(tc.name, func(t *testing.T) {
			want, wantRes := joinedReference(t, tc.cfg, seq)
			if tc.name == "prune" && wantRes.Trace.Totals().PrunedGaussians == 0 {
				t.Fatal("nothing was pruned: the configuration exercises nothing")
			}

			each := New(tc.cfg, seq.Intr)
			defer each.Close()
			back := New(tc.cfg, seq.Intr)
			defer back.Close()
			for i, f := range seq.Frames {
				if err := each.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
				if each.tail == nil || each.tail.done != nil {
					t.Fatalf("frame %d: ProcessFrame did not return with its tail pending", i)
				}
				if got := each.AppendSnapshot(nil, nil); !bytes.Equal(got, want[i]) {
					t.Fatalf("frame %d: snapshot after ProcessFrame differs from the serial schedule's (%d vs %d bytes)", i, len(got), len(want[i]))
				}
				if err := back.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
				if back.FrameCount() != i+1 {
					t.Fatalf("frame %d: FrameCount = %d at return", i, back.FrameCount())
				}
			}
			if got := back.AppendSnapshot(nil, nil); !bytes.Equal(got, want[len(want)-1]) {
				t.Fatal("back-to-back run: final snapshot differs from the serial schedule's")
			}

			// Mapper, Finish and Close, each straight after a ProcessFrame.
			last := len(seq.Frames) - 1
			for _, jp := range []struct {
				name  string
				check func(*System) bool
			}{
				{"Mapper", func(s *System) bool { return s.Mapper().Cloud().Len() == wantRes.Cloud.Len() }},
				{"Finish", func(s *System) bool { return s.Finish(seq.Name).Digest() == wantRes.Digest() }},
				{"Close", func(s *System) bool { s.Close(); return s.tail == nil && s.renderCtx == nil }},
			} {
				sys, err := Restore(bytes.NewReader(want[last-1]))
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.ProcessFrame(seq.Frames[last]); err != nil {
					t.Fatal(err)
				}
				if !jp.check(sys) {
					t.Errorf("%s straight after ProcessFrame did not see the frame mapped", jp.name)
				}
				sys.Close()
			}
		})
	}
}

// TestTailRaceSystem interleaves ProcessFrame with AppendSnapshot, Finish and
// Close on one goroutine, the way a producer that owns a System may, and must
// end on the serial digest with the race detector quiet.
func TestTailRaceSystem(t *testing.T) {
	seq := testSeq(t, "Desk", 9)
	cfg := pruneCfg(tw, th)
	_, want := joinedReference(t, cfg, seq)
	sys := New(cfg, seq.Intr)
	defer sys.Close()
	var buf []byte
	for i, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0:
			buf = sys.AppendSnapshot(buf[:0], nil)
		case 1:
			sys.Finish(seq.Name)
		case 2:
			sys.Close() // the system stays usable: the next frame re-attaches
		}
	}
	if sys.Finish(seq.Name).Digest() != want.Digest() {
		t.Error("interleaved run: digest differs from the serial schedule's")
	}
}

// TestTailRaceTwoSessions pushes two streams through one server at once, each
// producer interleaving snapshots with its pushes.
func TestTailRaceTwoSessions(t *testing.T) {
	seqs := []*scene.Sequence{testSeq(t, "Desk", 7), testSeq(t, "Xyz", 7)}
	cfg := fastAGS(tw, th)
	srv := NewServer(ServerConfig{})
	var wg sync.WaitGroup
	for _, seq := range seqs {
		want := directRun(t, cfg, seq).Digest()
		sess, err := srv.Open(seq.Name, cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i, f := range seq.Frames {
				if err := sess.Push(f); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 1 {
					var err error
					if buf, err = sess.AppendSnapshot(buf[:0], nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
			res, err := sess.Close()
			if err != nil {
				t.Error(err)
				return
			}
			if res.Digest() != want {
				t.Errorf("%s: session digest differs from a direct run's", seq.Name)
			}
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTailSessionStartsAtOnce: a session's producer may wait before the next
// push, so Push starts each frame's tail itself: the tail is running when Push
// returns, and the frame's render context comes back to the pool with no
// further push and no close, so an idle session pins none. A standalone
// system would leave the tail pending, context and all, until the next call.
func TestTailSessionStartsAtOnce(t *testing.T) {
	seq := testSeq(t, "Desk", 2)
	srv := NewServer(ServerConfig{})
	sess, err := srv.Open(seq.Name, fastAGS(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range seq.Frames {
		if err := sess.Push(f); err != nil {
			t.Fatal(err)
		}
		if tail := sess.sys.tail; tail == nil || tail.done == nil {
			t.Fatalf("frame %d: Push returned with the tail pending", i)
		}
		for deadline := time.Now().Add(30 * time.Second); srv.PoolStats().Idle == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d: the render context never came back: the session left its tail pending", i)
			}
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTailOneProcessor: the schedule is work-conserving, so on one processor
// it degenerates to the serial order and must produce the serial digest.
func TestTailOneProcessor(t *testing.T) {
	seq := testSeq(t, "Desk", 6)
	for _, tc := range tailCfgs()[:2] {
		_, want := joinedReference(t, tc.cfg, seq)
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			if got := directRun(t, tc.cfg, seq); got.Digest() != want.Digest() {
				t.Errorf("%s: GOMAXPROCS(1) digest differs from the serial schedule's", tc.name)
			}
		}()
	}
}

// TestTailRejectedFrameLeavesStateAlone: a frame that fails validation returns
// with the previous frame's tail still pending, one the front rejects returns
// while that tail is in flight, without waiting for it; both commit nothing,
// and the stream continues to the serial digest.
func TestTailRejectedFrameLeavesStateAlone(t *testing.T) {
	seq := testSeq(t, "Desk", 5)
	cfg := fastAGS(tw, th)
	_, want := joinedReference(t, cfg, seq)

	wrongSize := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1}).Frames[0]
	short := *seq.Frames[2]
	shortColor := *short.Color
	shortColor.Pix = shortColor.Pix[:len(shortColor.Pix)-1]
	short.Color = &shortColor

	type committed struct {
		frameCount, poses, gt, info int
		prevFrame, keyFrame         *frame.Frame
		prevPose, prevRel, keyPose  vecmath.Pose
	}
	state := func(s *System) committed {
		return committed{s.frameCount, len(s.poses), len(s.gt), len(s.info),
			s.prevFrame, s.keyFrame, s.prevPose, s.prevRel, s.keyPose}
	}

	sys := New(cfg, seq.Intr)
	defer sys.Close()
	for i, f := range seq.Frames {
		if i == 2 {
			before := state(sys)
			block := sys.detector.Cfg.BlockSize
			for _, bad := range []struct {
				name    string
				f       *frame.Frame
				block   int
				wantErr string
				starts  bool // validation rejects before the tail starts, the front after
			}{
				{"wrong size", wrongSize, block, "does not match camera", false},
				{"short plane", &short, block, "slam:", false},
				{"failing comparison", f, 0, "covisibility with the previous frame", true}, // the codec rejects block size 0
			} {
				sys.detector.Cfg.BlockSize = bad.block
				err := sys.ProcessFrame(bad.f)
				if err == nil || !strings.Contains(err.Error(), bad.wantErr) {
					t.Fatalf("%s: err = %v, want one naming %q", bad.name, err, bad.wantErr)
				}
				if sys.tail == nil {
					t.Fatalf("%s: the rejected frame joined the tail", bad.name)
				}
				if started := sys.tail.done != nil; started != bad.starts {
					t.Fatalf("%s: tail started = %v, want %v", bad.name, started, bad.starts)
				}
				if after := state(sys); after != before {
					t.Fatalf("%s: the rejected frame moved committed state: %+v, was %+v", bad.name, after, before)
				}
			}
			sys.detector.Cfg.BlockSize = block
		}
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Finish(seq.Name).Digest() != want.Digest() {
		t.Error("the rejected frames perturbed the run: digest differs from the serial schedule's")
	}
}

// TestTailPanicSurfacesAtJoin: a panic while mapping comes back on the
// caller's goroutine from whichever join sees the tail through, leaving the
// system with no tail. When the next ProcessFrame started the tail it happened
// on the tail's goroutine, where nothing could recover it: the tail keeps it
// and that call's join panics with it, stack included. When Close runs the
// pending tail in place it is an ordinary panic of that call. The fault
// injected is a retained key frame whose colour plane is cut short after the
// frame was accepted: mapping indexes past it when its multi-view loss
// samples that frame.
func TestTailPanicSurfacesAtJoin(t *testing.T) {
	// drive returns what the call panicked with, nil if it returned.
	drive := func(call func()) (panicked any) {
		defer func() { panicked = recover() }()
		call()
		return nil
	}
	for _, tc := range []struct {
		name       string
		closeEach  bool // Close after every frame, so every tail runs in place
		wantInTail bool // the panic crossed from the tail's goroutine
	}{
		{"next ProcessFrame", false, true},
		{"Close", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := testSeq(t, "Desk", 10)
			cfg := fastCfg(tw, th)
			cfg.Workers = 1       // the splat kernels run on the tail's own goroutine
			cfg.KeyframeEvery = 1 // every frame joins the mapping window
			cfg.ThreshM = 2       // and becomes the anchor, so no front reads an older one
			sys := New(cfg, seq.Intr)
			for _, f := range seq.Frames[:3] {
				if err := sys.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			sys.join()
			for _, f := range seq.Frames[:2] {
				f.Color.Pix = f.Color.Pix[:1]
			}

			var got any
			for _, f := range seq.Frames[3:] {
				got = drive(func() {
					if err := sys.ProcessFrame(f); err != nil {
						t.Error(err)
					}
				})
				if got == nil && tc.closeEach {
					got = drive(sys.Close)
				}
				if got != nil {
					break
				}
			}
			if got == nil {
				got = drive(sys.Close)
			}
			msg := ""
			switch p := got.(type) {
			case *tailPanic:
				if !tc.wantInTail {
					t.Fatalf("a tail run in place panicked through the tail goroutine's wrapper: %v", p)
				}
				if msg = p.Error(); !strings.Contains(msg, "mapper.(*Mapper).optimize") {
					t.Errorf("the re-panic does not carry the tail's stack:\n%s", msg)
				}
			case error:
				if tc.wantInTail {
					t.Fatalf("recovered %v (%T), want the tail goroutine's panic", got, got)
				}
				msg = p.Error()
			default:
				t.Fatalf("recovered %v (%T), want the mapping's panic", got, got)
			}
			if !strings.Contains(msg, "index out of range") {
				t.Errorf("the panic is not the mapping's: %s", msg)
			}
			if sys.tail != nil {
				t.Error("a tail is left after its panic surfaced")
			}
			if again := drive(sys.Close); again != nil {
				t.Errorf("Close after the panic surfaced panicked again: %v", again)
			}
		})
	}
}

// TestTailPanicFailsOneSession: a mapping tail that panics inside a session
// fails that session and no other. The fault is TestTailPanicSurfacesAtJoin's,
// injected between pushes: a snapshot joins the tail's last writes before
// the test cuts two retained key frames' colour planes. The poisoned session's
// Push, AppendSnapshot and Close then report the tail's panic with its stack,
// the snapshot leaves dst alone, the other session on the same server closes
// on its sequential digest, and both leave the server.
func TestTailPanicFailsOneSession(t *testing.T) {
	cfg := fastCfg(tw, th)
	cfg.Workers = 1       // the splat kernels run on the tail's own goroutine
	cfg.KeyframeEvery = 1 // every frame joins the mapping window
	cfg.ThreshM = 2       // and becomes the anchor, so no front reads an older one
	healthySeq, poisonSeq := testSeq(t, "Desk", 10), testSeq(t, "Desk", 10)
	want, err := Run(cfg, healthySeq)
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(ServerConfig{})
	healthy, err := srv.Open(healthySeq.Name, cfg, healthySeq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := srv.Open("poisoned", cfg, poisonSeq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	push := func(i int) {
		t.Helper()
		if err := healthy.Push(healthySeq.Frames[i]); err != nil {
			t.Fatal(err)
		}
		poisoned.Push(poisonSeq.Frames[i]) // checked below, once the fault is bound to have surfaced
	}
	for i := range 3 {
		push(i)
	}
	if _, err := poisoned.AppendSnapshot(nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range poisonSeq.Frames[:2] {
		f.Color.Pix = f.Color.Pix[:1]
	}
	for i := 3; i < len(poisonSeq.Frames); i++ {
		push(i)
	}

	isTailPanic := func(op string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s on the poisoned session succeeded", op)
		}
		for _, sub := range []string{"index out of range", "mapper.(*Mapper).optimize"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error does not name %q:\n%v", op, sub, err)
			}
		}
	}
	dst := []byte("kept")
	out, err := poisoned.AppendSnapshot(dst, nil)
	isTailPanic("AppendSnapshot", err)
	if string(out) != "kept" {
		t.Errorf("AppendSnapshot returned %d bytes, want dst untouched", len(out))
	}
	isTailPanic("Push", poisoned.Push(poisonSeq.Frames[0]))
	res, err := poisoned.Close()
	isTailPanic("Close", err)
	if res != nil {
		t.Error("the poisoned session returned a Result")
	}

	got, err := healthy.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Error("the healthy session's digest differs from its sequential run")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
