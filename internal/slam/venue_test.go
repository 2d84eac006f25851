package slam

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"ags/internal/frame"
	"ags/internal/hw/trace"
	"ags/internal/scene"
)

// traceDetail counts the tasks of a run that did work (tracking or mapping
// with Iters > 0) and how many of them carry the representative-iteration
// detail. A task without work never carries any.
func traceDetail(t *testing.T, frames []trace.FrameTrace) (tasks, detailed int) {
	t.Helper()
	for i := range frames {
		ft := &frames[i]
		for _, s := range []struct {
			name  string
			iters int
			has   bool
		}{{"track", ft.Track.Iters, ft.Track.HasDetail()}, {"map", ft.Map.Iters, ft.Map.HasDetail()}} {
			switch {
			case s.iters == 0 && s.has:
				t.Errorf("trace frame %d: %s ran no iteration but carries detail", i, s.name)
			case s.iters > 0:
				tasks++
				if s.has {
					detailed++
				}
			}
		}
	}
	return tasks, detailed
}

// pushAll pushes the frames and closes the session.
func pushAll(t *testing.T, sess *Session, frames []*frame.Frame) *Result {
	t.Helper()
	for _, f := range frames {
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

// TestRunTraceCarriesDetail pins the offline side of the venue split: the
// Result of Run, which is what internal/bench hands to the cycle-level
// hardware models, carries the representative-iteration detail on every task
// that did work. Were it ever scalars-only, hw/platform would fall
// back to its aggregate bounds without a word and every experiment would still
// print numbers.
func TestRunTraceCarriesDetail(t *testing.T) {
	for name, cfg := range map[string]Config{"baseline": fastCfg(tw, th), "ags": fastAGS(tw, th)} {
		res, err := Run(cfg, testSeq(t, "Xyz", 5))
		if err != nil {
			t.Fatal(err)
		}
		tasks, detailed := traceDetail(t, res.Trace.Frames)
		if tasks < len(res.Trace.Frames)+1 {
			t.Errorf("%s: %d tasks with work in %d frames; expected mapping on every frame and some tracking", name, tasks, len(res.Trace.Frames))
		}
		if detailed != tasks {
			t.Errorf("%s: %d of %d tasks carry detail, want all", name, detailed, tasks)
		}
	}
}

// TestVenueMatrix runs the same frames through every venue: a standalone
// System, Server.Run, an Open session, and a snapshot at frame k continued by
// Restore and by RestoreSession. All close on one frame count, one digest and
// one ATE, to the bit. New and Run keep the per-frame history of every frame,
// with detail on every task with work; Restore keeps it from frame k on (a
// snapshot carries the history as a running digest), detail included; the
// serving venues (Open, RestoreSession) keep none. A session restored from
// the standalone system's snapshot snapshots the same bytes again.
func TestVenueMatrix(t *testing.T) {
	const frames, k = 8, 4
	for name, cfg := range map[string]Config{"baseline": fastCfg(tw, th), "ags": fastAGS(tw, th)} {
		t.Run(name, func(t *testing.T) {
			seq := testSeq(t, "Xyz", frames)
			srv := NewServer(ServerConfig{})

			// slam.New, snapshotted at k on the way.
			sys := New(cfg, seq.Intr)
			var fullSnap []byte
			for i, f := range seq.Frames {
				if i == k {
					fullSnap = sys.AppendSnapshot(nil, nil)
				}
				if err := sys.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			ref := sys.Finish(seq.Name)
			sys.Close()
			want := ref.Digest()
			wantATE, err := ref.ATERMSECm()
			if err != nil {
				t.Fatal(err)
			}

			// Server.Open, snapshotted at k on the way.
			sess, err := srv.Open(seq.Name, cfg, seq.Intr)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range seq.Frames[:k] {
				if err := sess.Push(f); err != nil {
					t.Fatal(err)
				}
			}
			leanSnap, err := sess.AppendSnapshot(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			opened := pushAll(t, sess, seq.Frames[k:])

			ran, err := srv.Run(cfg, seq)
			if err != nil {
				t.Fatal(err)
			}

			restore := func(snap []byte) *Result {
				t.Helper()
				sys, err := Restore(bytes.NewReader(snap))
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				for _, f := range seq.Frames[sys.FrameCount():] {
					if err := sys.ProcessFrame(f); err != nil {
						t.Fatal(err)
					}
				}
				return sys.Finish(seq.Name)
			}
			restored := restore(fullSnap)
			restoredLean := restore(leanSnap)

			rs, n, err := srv.RestoreSession(seq.Name, fullSnap, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != k {
				t.Fatalf("RestoreSession resumed at frame %d, want %d", n, k)
			}
			resnap, err := rs.AppendSnapshot(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resnap, fullSnap) {
				t.Errorf("a session restored from a %d-byte snapshot re-snapshots %d other bytes", len(fullSnap), len(resnap))
			}
			if !bytes.Equal(resnap, leanSnap) {
				t.Errorf("the restored session's snapshot (%d bytes) is not the Open session's at the same frame (%d bytes)", len(resnap), len(leanSnap))
			}
			restoredSess := pushAll(t, rs, seq.Frames[k:])

			for _, v := range []struct {
				venue string
				res   *Result
				kept  int // frames of per-frame history
			}{
				{"New", ref, frames},
				{"Server.Run", ran, frames},
				{"Restore", restored, frames - k},
				{"Server.Open", opened, 0},
				{"RestoreSession", restoredSess, 0},
				{"Restore of a session snapshot", restoredLean, frames - k},
			} {
				if got := v.res.Digest(); got != want || v.res.Frames != frames {
					t.Errorf("%s: digest %x over %d frames, standalone %x over %d", v.venue, got, v.res.Frames, want, frames)
				}
				if got, err := v.res.ATERMSECm(); err != nil || got != wantATE {
					t.Errorf("%s: ATE %v (%v), standalone %v", v.venue, got, err, wantATE)
				}
				if len(v.res.Poses) != v.kept || len(v.res.Trace.Frames) != v.kept {
					t.Errorf("%s: %d poses and %d trace frames kept, want %d each",
						v.venue, len(v.res.Poses), len(v.res.Trace.Frames), v.kept)
				}
				if first := frames - v.kept; v.kept > 0 && (v.res.Poses[0] != ref.Poses[first] ||
					v.res.Trace.Frames[0].Covisibility != ref.Trace.Frames[first].Covisibility) {
					t.Errorf("%s: the history does not start at frame %d", v.venue, first)
				}
				if tasks, detailed := traceDetail(t, v.res.Trace.Frames); detailed != tasks || v.kept > 0 && tasks == 0 {
					t.Errorf("%s: %d of %d tasks carry detail, want all of some", v.venue, detailed, tasks)
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotBytesIndependentOfVenue: a snapshot holds what a stream needs to
// continue, so a stream's snapshot at frame k is the same bytes whether a
// standalone System (which keeps the per-frame history and trace detail) or
// an Open session (which keeps neither) took it, with every body inline and
// as a checkpoint that names every frame by position. A Restore of it is an
// offline venue and keeps the history again, detail included, from frame k
// on.
func TestSnapshotBytesIndependentOfVenue(t *testing.T) {
	const frames = 7
	for name, cfg := range map[string]Config{"baseline": fastCfg(tw, th), "ags": fastAGS(tw, th)} {
		seq := testSeq(t, "Desk", frames)
		srv := NewServer(ServerConfig{})
		for _, k := range []int{1, 5} {
			sys := New(cfg, seq.Intr)
			sess, err := srv.Open(seq.Name, cfg, seq.Intr)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range seq.Frames[:k] {
				if err := sys.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
				if err := sess.Push(f); err != nil {
					t.Fatal(err)
				}
			}
			var snap []byte
			for _, have := range [][]int{nil, {0, 1, 2, 3, 4}} {
				offline := sys.AppendSnapshot(nil, have)
				serving, err := sess.AppendSnapshot(nil, have)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(offline, serving) {
					t.Errorf("%s at frame %d, have %v: New snapshots %d bytes, Open %d other bytes", name, k, have, len(offline), len(serving))
				}
				if have == nil {
					snap = offline
				}
			}
			// The standalone system goes on to the end: the history a
			// restore keeps is its history from frame k on.
			for _, f := range seq.Frames[k:] {
				if err := sys.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			whole := sys.Finish(seq.Name)
			sys.Close()
			if _, err := sess.Close(); err != nil {
				t.Fatal(err)
			}

			restored, err := Restore(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range seq.Frames[k:] {
				if err := restored.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			res := restored.Finish(seq.Name)
			restored.Close()
			if len(res.Trace.Frames) != frames-k || !slices.Equal(res.Poses, whole.Poses[k:]) {
				t.Errorf("%s at frame %d: the restored system kept %d trace frames, want the %d after the restore", name, k, len(res.Trace.Frames), frames-k)
			}
			if tasks, d := traceDetail(t, res.Trace.Frames); tasks == 0 || d != tasks {
				t.Errorf("%s at frame %d: %d of the %d tasks after the restore carry detail, want all", name, k, d, tasks)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMalformedFrameFailsOneSession: a frame whose colour or depth plane is
// shorter than its declared size, or holds a NaN or infinite sample, is
// refused by name before the pipeline reads it. A short plane used to be an
// index out of range inside ProcessFrame, which took the whole server process
// and every other tenant with it; a non-finite sample left the session's map
// non-finite with no error, and its own snapshots unrestorable. The stream
// that pushed it fails at the frame it had reached; the server's other
// session never notices.
func TestMalformedFrameFailsOneSession(t *testing.T) {
	const frames, at = 6, 2
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: frames, Seed: 1})
	malformed := map[string]struct {
		edit func(*frame.Frame)
		want error
	}{
		"short color": {func(f *frame.Frame) {
			f.Color = &frame.Image{W: f.Color.W, H: f.Color.H, Pix: f.Color.Pix[:len(f.Color.Pix)/2]}
		}, frame.ErrPlaneSize},
		"short depth": {func(f *frame.Frame) {
			f.Depth = &frame.DepthMap{W: f.Depth.W, H: f.Depth.H, D: f.Depth.D[:len(f.Depth.D)/2]}
		}, frame.ErrPlaneSize},
		"NaN color": {func(f *frame.Frame) {
			f.Color = &frame.Image{W: f.Color.W, H: f.Color.H, Pix: slices.Clone(f.Color.Pix)}
			f.Color.Pix[100].X = math.NaN()
		}, frame.ErrNonFinite},
		"+Inf depth": {func(f *frame.Frame) {
			f.Depth = &frame.DepthMap{W: f.Depth.W, H: f.Depth.H, D: slices.Clone(f.Depth.D)}
			f.Depth.D[200] = math.Inf(1)
		}, frame.ErrNonFinite},
	}
	for plane, m := range malformed {
		cfg := fastAGS(32, 24)
		ref, err := Run(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		bad := *seq.Frames[at]
		m.edit(&bad)

		srv := NewServer(ServerConfig{})
		good, err := srv.Open(seq.Name, cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		poisoned, err := srv.Open("poisoned", cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range seq.Frames[:at] {
			if err := good.Push(f); err != nil {
				t.Fatal(err)
			}
			if err := poisoned.Push(f); err != nil {
				t.Fatal(err)
			}
		}
		// The push that carries the frame fails, and every later push and
		// Close report why.
		if err := poisoned.Push(&bad); !errors.Is(err, m.want) {
			t.Errorf("%s: push of the malformed frame = %v, want %v", plane, err, m.want)
		}
		if err := poisoned.Push(seq.Frames[at]); !errors.Is(err, m.want) {
			t.Errorf("%s: push after the malformed frame = %v, want %v", plane, err, m.want)
		}
		if res, err := poisoned.Close(); !errors.Is(err, m.want) || res != nil {
			t.Errorf("%s: Close = (%v, %v), want %v and no result", plane, res, err, m.want)
		}
		if n := poisoned.sys.FrameCount(); n != at {
			t.Errorf("%s: the refused frame left the system at frame %d, want %d", plane, n, at)
		}
		res := pushAll(t, good, seq.Frames[at:])
		if res.Digest() != ref.Digest() {
			t.Errorf("%s: the other session's digest diverged from its sequential run", plane)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSoakStaysBounded streams a long ping-pong walk over a short Desk
// sequence through one session. The walk revisits the same views, so after the
// first sweep the map and the key-frame window stop growing, and a frame then
// adds nothing to the session: its record is folded into the hash chain and
// the ATE moments, which are the same size at every frame. Before the history
// became a running digest a frame added its scalars (two poses, its decisions
// and its trace: 317 bytes in a snapshot, 551 resident), and with the
// representative-iteration detail retained, as every session once did, both
// grew by ~40 KiB per frame for ever.
func TestSessionSoakStaysBounded(t *testing.T) {
	const (
		sweep        = 20
		snapPerFrame = 16
		heapPerFrame = 256
	)
	total := 240
	if testing.Short() {
		total = 90
	}
	warm := total / 3
	seq := testSeq(t, "Desk", sweep)
	cfg := fastAGS(tw, th)
	cfg.Mapper.MapIters = 3
	srv := NewServer(ServerConfig{})
	sess, err := srv.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	// Both snapshots go into one buffer made up front, so the heap readings
	// differ by what the session holds and not by the test's own buffer.
	snap := make([]byte, 0, 1<<20)
	measure := func() (snapBytes int, heap uint64) {
		t.Helper()
		if snap, err = sess.AppendSnapshot(snap[:0], nil); err != nil {
			t.Fatal(err)
		}
		if cap(snap) != 1<<20 {
			t.Fatalf("a %d-byte snapshot outgrew the test's 1 MiB buffer: the session holds far more than its map", len(snap))
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // twice: what sync.Pools held at the first is only freed by the second
		runtime.ReadMemStats(&ms)
		return len(snap), ms.HeapAlloc
	}
	var snap0 int
	var heap0 uint64
	var gauss0, gauss int
	for i := 0; i < total; i++ {
		j := i % (2*sweep - 2) // 0 .. sweep-1 and back down to 1
		if j >= sweep {
			j = 2*sweep - 2 - j
		}
		if err := sess.Push(seq.Frames[j]); err != nil {
			t.Fatal(err)
		}
		gauss = sess.sys.Mapper().Cloud().Len()
		if i+1 == warm {
			snap0, heap0 = measure()
			gauss0 = gauss
		}
	}
	snap1, heap1 := measure()
	runtime.KeepAlive(seq) // or the second reading is short of the frames the session does not hold
	if gauss > gauss0 {
		t.Fatalf("the map kept growing after the warm-up (%d -> %d Gaussians): the walk is not the steady state this test measures", gauss0, gauss)
	}
	n := total - warm
	snapGrowth := float64(snap1-snap0) / float64(n)
	heapGrowth := (float64(heap1) - float64(heap0)) / float64(n)
	t.Logf("frames %d-%d at %d Gaussians: snapshot %d -> %d bytes (%.0f B/frame), live heap %d -> %d bytes (%.0f B/frame)",
		warm, total, gauss, snap0, snap1, snapGrowth, heap0, heap1, heapGrowth)
	if snapGrowth > snapPerFrame {
		t.Errorf("snapshot grows %.0f B per frame in steady state, over %d", snapGrowth, snapPerFrame)
	}
	if heapGrowth > heapPerFrame {
		t.Errorf("live heap grows %.0f B per frame in steady state, over %d", heapGrowth, heapPerFrame)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
