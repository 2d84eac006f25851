package fleet

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ags/internal/scene"
	"ags/internal/slam"
)

const tw, th = 48, 36

// fastCfg mirrors slam's test configuration: full AGS pipeline, iteration
// counts shrunk so the end-to-end tests stay quick.
func fastCfg() slam.Config {
	cfg := slam.DefaultConfig(tw, th)
	cfg.TrackIters = 12
	cfg.IterT = 4
	cfg.Mapper.MapIters = 6
	cfg.Mapper.DensifyStride = 2
	cfg.EnableMAT = true
	cfg.EnableGCM = true
	return cfg
}

func testSeq(t *testing.T, name string, frames int) *scene.Sequence {
	t.Helper()
	return scene.MustGenerate(name, scene.Config{Width: tw, Height: th, Frames: frames, Seed: 1})
}

// startFleet boots n in-process nodes over loopback and a router over all of
// them, with cleanup registered.
func startFleet(t *testing.T, cfgs []NodeConfig) (*Router, []*Node) {
	t.Helper()
	nodes := make([]*Node, len(cfgs))
	r := NewRouter()
	for i, nc := range cfgs {
		n := NewNode(nc)
		addr, err := n.Start("")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		if err := r.AddNode(addr); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		r.Close()
		for _, n := range nodes {
			if err := n.Close(); err != nil {
				t.Errorf("node close: %v", err)
			}
		}
	})
	return r, nodes
}

// TestFleetDigestsMatchSequential is the falsifiability gate: a 2-node fleet
// serving interleaved streams over loopback must produce Result digests
// bit-identical to sequential in-process runs of the same sequences.
func TestFleetDigestsMatchSequential(t *testing.T) {
	cfg := fastCfg()
	seqs := []*scene.Sequence{
		testSeq(t, "Desk", 6),
		testSeq(t, "Xyz", 6),
		testSeq(t, "Room", 6),
	}

	// Sequential references, one isolated server each.
	want := make(map[string][32]byte)
	for _, seq := range seqs {
		res, err := slam.NewServer(slam.ServerConfig{}).Run(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		want[seq.Name] = res.Digest()
	}

	r, _ := startFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})

	// One producer goroutine per stream: pushes from concurrent streams
	// interleave on the nodes while each stream keeps its own frame order.
	var wg sync.WaitGroup
	sums := make([]ResultSummary, len(seqs))
	errs := make([]error, len(seqs))
	for i, seq := range seqs {
		st, err := r.Open(seq.Name, cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		//ags:allow(goroutine-site, test fan-out: one producer per stream, joined by wg.Wait below)
		go func(i int, seq *scene.Sequence, st *Stream) {
			defer wg.Done()
			for _, f := range seq.Frames {
				if err := st.Push(f); err != nil {
					errs[i] = err
					return
				}
			}
			sums[i], errs[i] = st.Close()
		}(i, seq, st)
	}
	wg.Wait()
	for i, seq := range seqs {
		if errs[i] != nil {
			t.Fatalf("stream %q: %v", seq.Name, errs[i])
		}
		if sums[i].Digest != want[seq.Name] {
			t.Errorf("stream %q: fleet digest diverges from sequential run", seq.Name)
		}
		if sums[i].Frames != len(seq.Frames) {
			t.Errorf("stream %q: %d frames, want %d", seq.Name, sums[i].Frames, len(seq.Frames))
		}
	}
	m := r.Metrics()
	if m.Placements != len(seqs) {
		t.Errorf("placements = %d, want %d", m.Placements, len(seqs))
	}
	if m.Migrations != 0 {
		t.Errorf("migrations = %d, want 0", m.Migrations)
	}
}

// TestFleetMigrationKeepsDigest drains a live stream's node mid-stream: the
// session snapshots over the wire, restores on the peer, the remaining
// frames push there, and the final digest still matches the uninterrupted
// sequential run. Without recovery (CheckpointEvery 0) the stream holds no
// frame, asks with an empty list and moves a snapshot with every body inline.
// With recovery armed the drain snapshot is also adopted as the stream's
// checkpoint, it names the frames the stream holds without their bodies, the
// restore supplies them, and checkpointing goes on over the new connection.
func TestFleetMigrationKeepsDigest(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 6)
	ref, err := slam.NewServer(slam.ServerConfig{}).Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts StreamOptions
	}{{"plain", StreamOptions{}}, {"checkpointed", StreamOptions{CheckpointEvery: 2}}} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := startFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})
			st, err := r.OpenWith(seq.Name, cfg, seq.Intr, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			home := st.Node()
			for i, f := range seq.Frames {
				if i == len(seq.Frames)/2 {
					if err := r.Drain(home); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Push(f); err != nil {
					t.Fatal(err)
				}
				if i == len(seq.Frames)/2 && tc.opts.CheckpointEvery > 0 && st.checkpointFrames != i {
					t.Errorf("after migrating at frame %d the checkpoint is at frame %d", i, st.checkpointFrames)
				}
				if i == len(seq.Frames)/2 && tc.opts.CheckpointEvery > 0 {
					// The previous frame at least: the restore was supplied it.
					if missing, err := slam.MissingFrames(nil, st.checkpoint); err != nil || len(missing) == 0 || len(missing) != len(st.held) {
						t.Errorf("the drain snapshot leaves out %v (%v), the stream holds %d frames", missing, err, len(st.held))
					}
				}
				if tc.opts.CheckpointEvery == 0 && (st.checkpoint != nil || len(st.held) != 0 || len(st.replay) != 0) {
					t.Errorf("a stream without recovery holds a checkpoint or %d+%d frames", len(st.held), len(st.replay))
				}
			}
			if tc.opts.CheckpointEvery > 0 && st.checkpointFrames != len(seq.Frames)-1 {
				t.Errorf("last checkpoint at frame %d, want %d (two pushes after the drain snapshot)", st.checkpointFrames, len(seq.Frames)-1)
			}
			sum, err := st.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Migrations() != 1 {
				t.Errorf("migrations = %d, want 1", st.Migrations())
			}
			if st.Node() == home {
				t.Errorf("stream still on drained node %q", home)
			}
			if sum.Digest != ref.Digest() {
				t.Error("migrated stream digest diverges from sequential run")
			}
			if sum.Frames != len(seq.Frames) {
				t.Errorf("frames = %d, want %d", sum.Frames, len(seq.Frames))
			}
			if r.Metrics().Migrations != 1 {
				t.Errorf("router migrations = %d, want 1", r.Metrics().Migrations)
			}
			if st.Recoveries() != 0 {
				t.Errorf("recoveries = %d, want 0", st.Recoveries())
			}
		})
	}
}

// TestFailedMigrationStaysFailed drains a stream's node while the only peer is
// full. The migration's refusal fails that push, and from then on every push
// and the close report the same failure, with the acknowledged frame counted:
// the stream failed, it was never closed.
func TestFailedMigrationStaysFailed(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 3)
	for _, tc := range []struct {
		name string
		opts StreamOptions
	}{{"plain", StreamOptions{}}, {"checkpointed", StreamOptions{CheckpointEvery: 2}}} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := startFleet(t, []NodeConfig{{Name: "a"}, {Name: "b", MaxSessions: 1}})
			st, err := r.OpenWith(seq.Name, cfg, seq.Intr, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			filler, err := r.Open("filler", cfg, seq.Intr)
			if err != nil {
				t.Fatal(err)
			}
			if st.Node() != "a" || filler.Node() != "b" {
				t.Fatalf("streams on %q and %q, want a and b", st.Node(), filler.Node())
			}
			if err := st.Push(seq.Frames[0]); err != nil {
				t.Fatal(err)
			}
			if err := r.Drain("a"); err != nil {
				t.Fatal(err)
			}
			failed := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, ErrNoPeer) || !errors.Is(err, ErrAdmission) {
					t.Errorf("%s: err = %v, want the migration's ErrNoPeer and ErrAdmission", op, err)
				} else if msg := err.Error(); strings.Contains(msg, "after Close") || strings.Contains(msg, "already closed") {
					t.Errorf("%s: %q calls the failed stream closed", op, msg)
				}
			}
			failed("migrating push", st.Push(seq.Frames[1]))
			failed("later push", st.Push(seq.Frames[2]))
			sum, err := st.Close()
			failed("close", err)
			if sum.Frames != 1 {
				t.Errorf("close counts %d frames, want the 1 acknowledged", sum.Frames)
			}
			if _, err := filler.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdmissionFallthrough covers both halves of the admission walk. On
// session budgets the second stream lands on the peer (the least-loaded node)
// and a third, refused by every node, must surface the admission rejection
// end-to-end. On a resident-bytes budget the least-loaded node refuses and
// the next candidate accepts: the stream is placed, off its first choice.
func TestAdmissionFallthrough(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 2)
	push := func(t *testing.T, st *Stream) {
		t.Helper()
		for _, f := range seq.Frames {
			if err := st.Push(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	closeAll := func(t *testing.T, sts ...*Stream) {
		t.Helper()
		for _, st := range sts {
			if _, err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("sessions", func(t *testing.T) {
		r, _ := startFleet(t, []NodeConfig{
			{Name: "a", MaxSessions: 1},
			{Name: "b", MaxSessions: 1},
		})
		st1, err := r.Open("s1", cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := r.Open("s2", cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		if st1.Node() == st2.Node() {
			t.Errorf("both streams on %q despite MaxSessions=1", st1.Node())
		}
		if _, err := r.Open("s3", cfg, seq.Intr); !errors.Is(err, ErrAdmission) {
			t.Errorf("third open: err = %v, want ErrAdmission", err)
		} else if n := strings.Count(err.Error(), ErrAdmission.Error()); n != 1 {
			t.Errorf("third open: %q names the refusal %d times, want once", err, n)
		}
		push(t, st1)
		push(t, st2)
		closeAll(t, st1, st2)
		// Slots freed: a new stream is admitted again.
		st4, err := r.Open("s4", cfg, seq.Intr)
		if err != nil {
			t.Fatalf("open after close: %v", err)
		}
		closeAll(t, st4)
	})

	t.Run("resident_bytes", func(t *testing.T) {
		r, _ := startFleet(t, []NodeConfig{
			{Name: "a", MaxResidentBytes: 1},
			{Name: "b"},
		})
		st1, err := r.Open("s1", cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := r.Open("s2", cfg, seq.Intr)
		if err != nil {
			t.Fatal(err)
		}
		if st1.Node() != "a" || st2.Node() != "b" {
			t.Fatalf("streams on %q and %q, want a and b", st1.Node(), st2.Node())
		}
		// s1's frames leave a render context idle in a's pool; closing s1
		// leaves a with fewer sessions than b but over its resident budget.
		push(t, st1)
		closeAll(t, st1)
		st3, err := r.Open("s3", cfg, seq.Intr)
		if err != nil {
			t.Fatalf("open with a peer to fall through to: %v", err)
		}
		if st3.Node() != "b" {
			t.Errorf("s3 on %q, want b: a is over its resident budget", st3.Node())
		}
		if m := r.Metrics(); m.Placements != 3 || m.PrimaryHits != m.Placements-1 {
			t.Errorf("placements %d, primary hits %d: want 3 placements, one off its first choice", m.Placements, m.PrimaryHits)
		}
		closeAll(t, st2, st3)
	})
}

// TestPlacementIsBalanced opens same-size streams one after another: each
// lands on a node with the fewest open sessions, so every node ends up with
// the same share.
func TestPlacementIsBalanced(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 1)
	for _, nodes := range []int{3, 4} {
		cfgs := make([]NodeConfig, nodes)
		for i := range cfgs {
			cfgs[i] = NodeConfig{Name: string(rune('a' + i))}
		}
		r, _ := startFleet(t, cfgs)
		counts := make(map[string]int)
		var streams []*Stream
		for i := 0; i < 2*nodes; i++ {
			st, err := r.Open(seq.Name, cfg, seq.Intr)
			if err != nil {
				t.Fatal(err)
			}
			counts[st.Node()]++
			streams = append(streams, st)
		}
		for _, nc := range cfgs {
			if counts[nc.Name] != 2 {
				t.Errorf("%d streams on %d nodes landed %v, want 2 on each", 2*nodes, nodes, counts)
				break
			}
		}
		if m := r.Metrics(); m.PrimaryHits != m.Placements {
			t.Errorf("%d of %d placements on their first choice, want all", m.PrimaryHits, m.Placements)
		}
		for _, st := range streams {
			if _, err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCandidates pins the placement order: draining nodes are left out, and
// the rest are ordered by open sessions, then pool-resident bytes, then the
// order the router knows them in.
func TestCandidates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		loads []NodeLoad
		want  []int
	}{
		{"no nodes", nil, nil},
		{"all draining", []NodeLoad{{Draining: true}, {Draining: true}}, nil},
		{"draining left out", []NodeLoad{{Draining: true}, {OpenSessions: 3}}, []int{1}},
		{"fewer sessions first", []NodeLoad{{OpenSessions: 2}, {}, {OpenSessions: 1}}, []int{1, 2, 0}},
		{"sessions before bytes", []NodeLoad{{ResidentBytes: 1 << 20}, {OpenSessions: 1}}, []int{0, 1}},
		{"fewer bytes on equal sessions", []NodeLoad{{OpenSessions: 1, ResidentBytes: 100}, {OpenSessions: 1, ResidentBytes: 50}}, []int{1, 0}},
		{"known order on equal load", []NodeLoad{{OpenSessions: 1, ResidentBytes: 50}, {OpenSessions: 1, ResidentBytes: 50}, {ResidentBytes: 99}}, []int{2, 0, 1}},
	} {
		if got := Candidates(tc.loads); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Candidates = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDrainRejectsNewStreams verifies the drain half of admission: a fully
// draining fleet admits nothing, and the draining node itself refuses an open
// with ErrDraining, named once.
func TestDrainRejectsNewStreams(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 2)
	r, nodes := startFleet(t, []NodeConfig{{Name: "a"}})
	if err := r.Drain("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("s", cfg, seq.Intr); err == nil {
		t.Fatal("open on fully draining fleet succeeded")
	}
	_, err := openOn(nodes[0].Addr(), encodeOpen(nil, "s", slam.AppendConfig(nil, &cfg), slam.AppendIntrinsics(nil, &seq.Intr)))
	if !errors.Is(err, ErrDraining) {
		t.Errorf("open on the draining node: err = %v, want ErrDraining", err)
	} else if n := strings.Count(err.Error(), ErrDraining.Error()); n != 1 {
		t.Errorf("open on the draining node: %q names the refusal %d times, want once", err, n)
	}
	sts, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || !sts[0].Draining || sts[0].Name != "a" {
		t.Errorf("stats = %+v", sts)
	}
}

// TestStatsReflectLoad checks the self-report the placement policy runs on.
func TestStatsReflectLoad(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 2)
	r, nodes := startFleet(t, []NodeConfig{{Name: "a", MaxSessions: 4, MaxResidentBytes: 1 << 30}})
	st, err := r.Open("s", cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	got := nodes[0].Stats()
	if got.OpenSessions != 1 {
		t.Errorf("OpenSessions = %d, want 1", got.OpenSessions)
	}
	if got.MaxSessions != 4 || got.MaxResidentBytes != 1<<30 {
		t.Errorf("budgets not echoed: %+v", got)
	}
	over, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(over) != 1 || over[0].OpenSessions != 1 {
		t.Errorf("wire stats = %+v", over)
	}
	for _, f := range seq.Frames {
		if err := st.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Frames != len(seq.Frames) {
		t.Errorf("frames = %d, want %d", sum.Frames, len(seq.Frames))
	}
	if got := nodes[0].Stats(); got.OpenSessions != 0 {
		t.Errorf("OpenSessions after close = %d, want 0", got.OpenSessions)
	}
}

// TestNodeCloseMidPushNoGoroutineLeak closes a node while a producer is
// mid-stream: Close must stop accepting, let the in-flight handler finish
// its one request, and join every goroutine — nothing may leak and nothing
// may race (the suite runs under -race via make verify).
func TestNodeCloseMidPushNoGoroutineLeak(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 30)
	before := runtime.NumGoroutine()

	n := NewNode(NodeConfig{Name: "a"})
	addr, err := n.Start("")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter()
	if err := r.AddNode(addr); err != nil {
		t.Fatal(err)
	}
	st, err := r.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	//ags:allow(goroutine-site, test fan-out: one producer pushing against the closing node, joined via done)
	go func() {
		for i, f := range seq.Frames {
			if i == 1 {
				close(started) // at least one push acked; the rest race Close
			}
			if err := st.Push(f); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	<-started
	if err := n.Close(); err != nil {
		t.Fatalf("node close: %v", err)
	}
	if perr := <-done; perr == nil {
		t.Fatal("all 30 pushes succeeded despite the node closing mid-stream")
	} else if !errors.Is(perr, ErrNodeLost) {
		t.Fatalf("push against closing node: %v, want ErrNodeLost", perr)
	}
	r.Close()

	// Every node goroutine (accept loop, conn handlers, session workers)
	// must be joined; give the runtime a moment to retire them.
	leaked := 0
	for i := 0; i < 100; i++ {
		if leaked = runtime.NumGoroutine() - before; leaked <= 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked > 0 {
		t.Errorf("%d goroutine(s) leaked after Node.Close (%d before, %d after)",
			leaked, before, runtime.NumGoroutine())
	}
}

// TestWireCodecsMatchSnapshotEncoding pins the transport encodings to the
// snapshot codec: a config (every field the wire carries set, see
// goldenConfig) and a frame round-tripped through the slam wire helpers come
// back bit-identical, which is what the digest equivalence ultimately rests
// on. A reflection walk first checks that goldenConfig sets every field of
// slam.Config and mapper.Config but the three no codec carries, so each field
// moves a golden byte and a field added later cannot bypass the codec
// unnoticed.
func TestWireCodecsMatchSnapshotEncoding(t *testing.T) {
	cfg := goldenConfig()
	notCarried := map[string]bool{"PipelineME": true, "CodecWorkers": true, "Workers": true}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			switch fv := v.Field(i); {
			case fv.Kind() == reflect.Struct:
				walk(name+".", fv)
			case notCarried[name]:
				if !fv.IsZero() {
					t.Errorf("goldenConfig sets %s, which no codec carries", name)
				}
			case fv.IsZero():
				t.Errorf("goldenConfig leaves %s zero, so the golden files do not pin it", name)
			}
		}
	}
	walk("", reflect.ValueOf(cfg))
	got, err := slam.DecodeConfig(slam.AppendConfig(nil, &cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatal("config wire round-trip changed fields")
	}
	seq := testSeq(t, "Desk", 1)
	in, err := slam.DecodeIntrinsics(slam.AppendIntrinsics(nil, &seq.Intr))
	if err != nil {
		t.Fatal(err)
	}
	if in != seq.Intr {
		t.Fatal("intrinsics wire round-trip changed fields")
	}
	f := seq.Frames[0]
	rt, err := slam.DecodeFrame(slam.AppendFrame(nil, f))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Index != f.Index || rt.GTPose != f.GTPose ||
		rt.Color.W != f.Color.W || rt.Color.H != f.Color.H ||
		!slices.Equal(rt.Color.Pix, f.Color.Pix) ||
		!slices.Equal(rt.Depth.D, f.Depth.D) {
		t.Fatal("frame wire round-trip changed fields")
	}
}
