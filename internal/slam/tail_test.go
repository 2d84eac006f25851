package slam

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/scene"
	"ags/internal/splat"
	"ags/internal/tracker"
	"ags/internal/vecmath"
)

// The tests of the mapping tail (see System and ProcessFrame): that frame t
// refines against the map as it stood before frame t-1's tail, what every
// join point sees, that a standalone system runs nothing behind its caller's
// back and holds no context between calls, that a rejected frame disturbs
// nothing, that a tail's panic comes back on the caller's goroutine, and that
// the schedule is the same computation on one processor. CI runs the
// Tail|JoinPoint|Schedule tests under -race -count=5 as a step of their own.

// tailCfgs are the configurations the tail tests cover: the three mapping
// paths (selective, key-frame, baseline), the coarse-only variant whose front
// is the whole of tracking, the false-positive measurement that renders at
// the start of a selective tail, and one whose prunes remove Gaussians inside
// tails of a short run.
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

// serialFrame is ProcessFrame's schedule with nothing beside the tracking:
// the frame's front and middle run against the map with the previous frame's
// tail still pending, then that tail runs (join starts and serves it), then
// the frame is committed. The second frame refines against the bootstrap map, so the first
// tail runs before it.
func serialFrame(t *testing.T, sys *System, f *frame.Frame) {
	t.Helper()
	if sys.frameCount == 1 {
		sys.join()
	}
	ft := &trace.FrameTrace{Index: sys.frameCount}
	var info FrameInfo
	pose, err := sys.track(f, splat.NewRenderContext(), sys.mapper.Cloud(), ft, &info)
	if err != nil {
		t.Fatal(err)
	}
	sys.join()
	sys.commit(f, pose, ft, &info)
}

// serialReference drives a system through serialFrame, with a join after the
// frames joinAfter names (what Mapper, Finish and Close do between frames),
// and returns its snapshot after every frame and its final Result.
func serialReference(t *testing.T, cfg Config, seq *scene.Sequence, joinAfter func(i int) bool) ([][]byte, *Result) {
	t.Helper()
	sys := New(cfg, seq.Intr)
	defer sys.Close()
	snaps := make([][]byte, len(seq.Frames))
	for i, f := range seq.Frames {
		serialFrame(t, sys, f)
		if sys.tail == nil || sys.tail.done != nil {
			t.Fatal("serialFrame did not leave the frame's tail pending")
		}
		if joinAfter != nil && joinAfter(i) {
			sys.join()
		}
		snaps[i] = sys.AppendSnapshot(nil, nil)
	}
	return snaps, sys.Finish(seq.Name)
}

// heldContexts is how many of the contexts a pool made are out on loan.
func heldContexts(st splat.PoolStats) int {
	return int(st.Misses) - int(st.Evictions) - st.Idle
}

// TestScheduleRefinesBeforePreviousTail: frame t's pose is what the refiner
// makes of a copy of the map taken before frame t-1's tail (the bootstrap map
// for frame 1), from the front's coarse pose on the AGS path and from the
// velocity and previous-pose candidates on the baseline path.
func TestScheduleRefinesBeforePreviousTail(t *testing.T) {
	seq := testSeq(t, "Desk", 6)
	for _, tc := range tailCfgs()[:2] {
		t.Run(tc.name, func(t *testing.T) {
			sys := New(tc.cfg, seq.Intr)
			defer sys.Close()
			refined := 0
			for i, f := range seq.Frames {
				if i == 1 {
					sys.join() // frame 1 refines against the bootstrap map
				}
				var before *gauss.Cloud
				var inits []vecmath.Pose
				var coarse vecmath.Pose
				if i > 0 {
					before = sys.mapper.Cloud().Clone()
					inits = []vecmath.Pose{sys.prevRel.Compose(sys.prevPose), sys.prevPose}
					// The front is a function of frames and committed poses;
					// running it here leaves nothing behind but the
					// detector's plane cache.
					fr, err := sys.front(f)
					if err != nil {
						t.Fatal(err)
					}
					coarse = fr.coarse
				}
				if err := sys.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
				// The frame's record waits in its pending tail until the
				// next frame joins it.
				rec := sys.tail.rec
				if i == 0 || rec.info.CoarseOnly {
					continue
				}
				ref := tracker.NewGSRefiner()
				ref.LR = tc.cfg.TrackLR
				ref.ScalarsOnly = true
				ref.Ctx = splat.NewRenderContext()
				var want vecmath.Pose
				if tc.cfg.EnableMAT {
					want, _ = ref.Refine(before, seq.Intr, f, coarse, tc.cfg.IterT)
				} else {
					want, _ = ref.RefineBest(before, seq.Intr, f, inits, tc.cfg.TrackIters)
				}
				if rec.pose != want {
					t.Errorf("frame %d: pose %v, refined against the map before frame %d's tail %v", i, rec.pose, i-1, want)
				}
				refined++
			}
			if refined < 2 {
				t.Fatalf("%d frames refined: the test exercises too little", refined)
			}
		})
	}
}

// TestJoinPointMatrix: a snapshot taken after every ProcessFrame, with that
// frame's tail pending, is byte for byte the serial schedule's and perturbs
// nothing; so is the final snapshot of a run whose frames went back to back
// (every front and refinement beside the previous tail), which carries every
// frame's pose, decisions and trace; and Mapper, Finish and Close each join,
// so whatever reads the map through them sees the last frame mapped.
func TestJoinPointMatrix(t *testing.T) {
	seq := testSeq(t, "Desk", 8)
	for _, tc := range tailCfgs() {
		t.Run(tc.name, func(t *testing.T) {
			want, wantRes := serialReference(t, tc.cfg, seq, nil)
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
			if each.Finish(seq.Name).Digest() != wantRes.Digest() {
				t.Fatal("the run snapshotted after every frame finished on another digest")
			}

			// Mapper, Finish and Close, each straight after a ProcessFrame.
			last := len(seq.Frames) - 1
			for _, jp := range []struct {
				name  string
				check func(*System) bool
			}{
				{"Mapper", func(s *System) bool { return s.Mapper().Cloud().Len() == wantRes.Cloud.Len() }},
				{"Finish", func(s *System) bool { return s.Finish(seq.Name).Digest() == wantRes.Digest() }},
				{"Close", func(s *System) bool { s.Close(); return s.tail == nil && s.mapper.Ctx == nil && s.refiner.Ctx == nil }},
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
// end on the digest of the serial schedule with the same joins (Finish and
// Close each run the pending tail) with the race detector quiet.
func TestTailRaceSystem(t *testing.T) {
	seq := testSeq(t, "Desk", 9)
	cfg := pruneCfg(tw, th)
	_, want := serialReference(t, cfg, seq, func(i int) bool { return i%4 == 1 || i%4 == 2 })
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

// TestTailPendingHoldsNoContext: Push and ProcessFrame return with the
// frame's tail pending, not started, and every context the frame drew (the
// tracking context and the previous tail's mapping context) back in the pool,
// so an idle stream pins none in either venue.
func TestTailPendingHoldsNoContext(t *testing.T) {
	seq := testSeq(t, "Desk", 4)
	srv := NewServer(ServerConfig{})
	sess, err := srv.Open(seq.Name, fastAGS(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(fastAGS(tw, th), seq.Intr, srv.ContextPool(), offline)
	for _, v := range []struct {
		name string
		push func(*frame.Frame) error
		sys  *System
	}{
		{"Push", sess.Push, sess.sys},
		{"ProcessFrame", sys.ProcessFrame, sys},
	} {
		for i, f := range seq.Frames {
			if err := v.push(f); err != nil {
				t.Fatal(err)
			}
			if tail := v.sys.tail; tail == nil || tail.done != nil {
				t.Fatalf("%s, frame %d: returned without its tail pending", v.name, i)
			}
			if n := heldContexts(srv.PoolStats()); n != 0 {
				t.Fatalf("%s, frame %d: %d contexts held: a pending tail holds one", v.name, i, n)
			}
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if n := heldContexts(srv.PoolStats()); n != 0 {
		t.Fatalf("%d contexts held after Close", n)
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
		_, want := serialReference(t, tc.cfg, seq, nil)
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			if got := directRun(t, tc.cfg, seq); got.Digest() != want.Digest() {
				t.Errorf("%s: GOMAXPROCS(1) digest differs from the serial schedule's", tc.name)
			}
		}()
	}
}

// TestTailHelpedByProducer: the producer takes tiles of its tail's render and
// backward passes, and chunks of its Each passes (projection, Adam steps),
// while it waits in join, and the run is still the serial schedule's, whose
// passes run on their callers alone. Mapping is made the longer side by far,
// so the producer is through tracking while the tail still has passes to
// run.
func TestTailHelpedByProducer(t *testing.T) {
	seq := testSeq(t, "Desk", 5)
	cfg := fastCfg(tw, th)
	cfg.TrackIters = 2
	cfg.Mapper.MapIters = 20
	_, want := serialReference(t, cfg, seq, nil)
	sys := New(cfg, seq.Intr)
	for _, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Finish(seq.Name).Digest() != want.Digest() {
		t.Error("the helped run's digest differs from the serial schedule's")
	}
	if sys.crew.Tiles() == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Error("the producer took no tile of its tails' passes")
	}
	if sys.crew.Chunks() == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Error("the producer took no chunk of its tails' passes")
	}
}

// TestTailRejectedFrameLeavesStateAlone: a frame that fails validation returns
// with the previous frame's tail still pending; one the front rejects returns
// once that tail, started beside it, is joined, so no goroutine outlives the
// call. Neither commits anything, and the stream continues to the digest of
// the serial schedule with that one join.
func TestTailRejectedFrameLeavesStateAlone(t *testing.T) {
	seq := testSeq(t, "Desk", 5)
	cfg := fastAGS(tw, th)
	_, want := serialReference(t, cfg, seq, func(i int) bool { return i == 1 })

	wrongSize := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 1, Seed: 1}).Frames[0]
	short := *seq.Frames[2]
	shortColor := *short.Color
	shortColor.Pix = shortColor.Pix[:len(shortColor.Pix)-1]
	short.Color = &shortColor

	type committed struct {
		frameCount                 int
		prevFrame, keyFrame        *frame.Frame
		prevPose, prevRel, keyPose vecmath.Pose
	}
	state := func(s *System) committed {
		return committed{s.frameCount, s.prevFrame, s.keyFrame, s.prevPose, s.prevRel, s.keyPose}
	}

	// A server of its own, so the held-context count is this system's alone
	// (TestTailPanicSurfacesAtJoin leaves the contexts its panicking tails
	// held out on DefaultServer's pool, and -count runs the two in turn).
	srv := NewServer(ServerConfig{})
	sys := newSystem(cfg, seq.Intr, srv.ContextPool(), offline)
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
				joins   bool // validation rejects before the tail starts, the front after
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
				if joined := sys.tail == nil; joined != bad.joins {
					t.Fatalf("%s: tail joined = %v, want %v", bad.name, joined, bad.joins)
				}
				if sys.tail != nil && sys.tail.done != nil {
					t.Fatalf("%s: returned with the tail in flight", bad.name)
				}
				if n := heldContexts(srv.PoolStats()); n != 0 {
					t.Fatalf("%s: returned holding %d render contexts", bad.name, n)
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
// system with no tail. The panic happens on the tail's goroutine, where
// nothing could recover it, whether the next ProcessFrame started the tail
// or Close's own join did: the tail keeps it and that call's join panics
// with it, stack included. The fault
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
		name      string
		closeEach bool // Close after every frame, so Close's join starts every tail
	}{
		{"next ProcessFrame", false},
		{"Close", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := testSeq(t, "Desk", 10)
			cfg := fastCfg(tw, th)
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
			p, ok := got.(*tailPanic)
			if !ok {
				t.Fatalf("recovered %v (%T), want the tail goroutine's panic", got, got)
			}
			msg := p.Error()
			if !strings.Contains(msg, "mapper.(*Mapper).optimize") {
				t.Errorf("the re-panic does not carry the tail's stack:\n%s", msg)
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
// injected between pushes, when no tail is in flight (a Push returns with its
// frame's tail pending): the test cuts two retained key frames' colour
// planes. The poisoned session's
// Push, AppendSnapshot and Close then report the tail's panic with its stack,
// the snapshot leaves dst alone, the other session on the same server closes
// on its sequential digest, and both leave the server.
func TestTailPanicFailsOneSession(t *testing.T) {
	cfg := fastCfg(tw, th)
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
