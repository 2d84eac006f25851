package fleet

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"ags/internal/fleet/chaos"
	"ags/internal/scene"
	"ags/internal/slam"
)

// startChaosFleet boots n in-process nodes over loopback, each behind its
// own fault injector, plus a router over all of them.
func startChaosFleet(t *testing.T, cfgs []NodeConfig) (*Router, []*Node, map[string]*chaos.Injector) {
	t.Helper()
	nodes := make([]*Node, len(cfgs))
	injs := make(map[string]*chaos.Injector, len(cfgs))
	r := NewRouter()
	for i, nc := range cfgs {
		in := chaos.New(chaos.Config{Seed: 0xA65 + uint64(i)})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := NewNode(nc)
		addr, err := n.StartOn(in.Listen(ln))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		injs[nc.Name] = in
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
	return r, nodes, injs
}

func sequentialDigest(t *testing.T, cfg slam.Config, seq *scene.Sequence) [32]byte {
	t.Helper()
	res, err := slam.NewServer(slam.ServerConfig{}).Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}

// TestRecoverKillDuringPush is the tentpole gate: the serving node is killed
// uncleanly mid push-reply (truncating the frame at a seeded offset), the
// stream restores its last checkpoint on the peer, replays the buffered
// frames, and finishes with a digest bit-identical to an undisturbed
// sequential run — with at least one checkpoint restore and one replayed
// frame on the books.
func TestRecoverKillDuringPush(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 8)
	ref := sequentialDigest(t, cfg, seq)

	r, _, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	home := st.Node()
	for i, f := range seq.Frames {
		if i == 5 {
			// The serving node's next write is this push's reply: it dies
			// mid-frame, taking the whole node (listener + conns) with it.
			injs[st.Node()].ArmKill(1)
		}
		if err := st.Push(f); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Node() == home {
		t.Errorf("stream still on killed node %q", home)
	}
	if st.Recoveries() != 1 {
		t.Errorf("recoveries = %d, want 1 (checkpoint restore)", st.Recoveries())
	}
	// Checkpoint at frame 4, kill on frame 5's ack: frames 4 and 5 replay.
	if st.Replayed() != 2 {
		t.Errorf("replayed = %d, want 2", st.Replayed())
	}
	if sum.Digest != ref {
		t.Error("recovered stream digest diverges from sequential run")
	}
	if sum.Frames != len(seq.Frames) {
		t.Errorf("frames = %d, want %d", sum.Frames, len(seq.Frames))
	}
	m := r.Metrics()
	if m.Recoveries != 1 || m.ReplayedFrames != st.Replayed() {
		t.Errorf("router metrics %+v, want 1 recovery / %d replayed", m, st.Replayed())
	}
	if kills := injs[home].Stats().Kills; kills != 1 {
		t.Errorf("injector kills = %d, want 1", kills)
	}
	// The corpse, and only the corpse, is out of placement.
	for _, h := range r.CheckHealth() {
		if h.Name == home && (!h.Evicted || h.Reachable) {
			t.Errorf("killed node %q not evicted: %+v", home, h)
		}
		if h.Name != home && (h.Evicted || !h.Reachable) {
			t.Errorf("surviving node %q evicted by its peer's death: %+v", h.Name, h)
		}
	}
}

// TestRecoverKillDuringSnapshot kills the node while it streams the very
// first checkpoint's snapshot back, so recovery has no checkpoint at all and
// must fall back to a fresh open plus a full replay from frame zero.
func TestRecoverKillDuringSnapshot(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 6)
	ref := sequentialDigest(t, cfg, seq)

	r, _, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(seq.Frames[0]); err != nil {
		t.Fatal(err)
	}
	// Next two node writes: frame 1's push reply, then the first checkpoint's
	// snap-data reply — the kill truncates the snapshot mid-frame.
	injs[st.Node()].ArmKill(2)
	for i, f := range seq.Frames[1:] {
		if err := st.Push(f); err != nil {
			t.Fatalf("push %d: %v", i+1, err)
		}
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recoveries() != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries())
	}
	// No checkpoint existed yet: frames 0 and 1 replay through a fresh open.
	if st.Replayed() != 2 {
		t.Errorf("replayed = %d, want 2 (full replay from frame zero)", st.Replayed())
	}
	if sum.Digest != ref {
		t.Error("snapshot-killed stream digest diverges from sequential run")
	}
}

// TestRecoverKillWithFilledWindow runs the two kill tests above on a stream
// whose key-frame window has filled, so the RESTORE that recovers it carries the
// checkpoint and eight frames out of the router's own buffers (the window holds
// the previous frame; the key frame may be a ninth): killed on a push reply, and
// killed on the snap-data reply of a later checkpoint, where the restore falls
// back to the checkpoint before it and the held set that goes with that one.
// Both close on the sequential digest.
func TestRecoverKillWithFilledWindow(t *testing.T) {
	const frames, every = 16, 2
	cfg, seq := windowStream(t, frames)
	ref := sequentialDigest(t, cfg, seq)
	for _, tc := range []struct {
		name     string
		armAt    int // before this push
		writes   int // the node dies on this many writes from then on
		replayed int
	}{
		// Checkpoint at 12; the kill takes push 13's reply: 12 and 13 replay.
		{"during push", 13, 1, 2},
		// Push 13's reply, then the checkpoint at 14 dies mid-snapshot: the
		// restore is of the checkpoint at 12, and 12 and 13 replay.
		{"during snapshot", 13, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})
			st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			home := st.Node()
			var supplied []int
			for i, f := range seq.Frames {
				if i == tc.armAt {
					for _, h := range st.held {
						supplied = append(supplied, h.pos)
					}
					injs[st.Node()].ArmKill(tc.writes)
				}
				if err := st.Push(f); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}
			sum, err := st.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(supplied) < 6 {
				t.Errorf("the restore carried frames %v, want at least 6 from the router", supplied)
			}
			if st.Node() == home || st.Recoveries() != 1 || st.Replayed() != tc.replayed {
				t.Errorf("on %q (home %q) after %d recoveries and %d replayed frames, want 1 and %d",
					st.Node(), home, st.Recoveries(), st.Replayed(), tc.replayed)
			}
			if sum.Digest != ref || sum.Frames != frames {
				t.Errorf("recovered stream: %d frames, digest equal %v", sum.Frames, sum.Digest == ref)
			}
		})
	}
}

// TestHealthCheckEvictsAndReadmits kills a node under a live stream: a
// health probe evicts it, the stream recovers onto a peer with the digest
// intact, and when a replacement node comes back on the same address the
// next probe re-admits it.
func TestHealthCheckEvictsAndReadmits(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 6)
	ref := sequentialDigest(t, cfg, seq)

	r, nodes, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	home := st.Node()
	var homeAddr string
	for _, n := range nodes {
		if n.Stats().Name == home {
			homeAddr = n.Addr()
		}
	}
	for i, f := range seq.Frames {
		if i == 3 {
			// Quiet unclean death between pushes; the next push discovers it.
			injs[home].Kill()
			evicted := 0
			for _, h := range r.CheckHealth() {
				if h.Evicted {
					evicted++
					if h.Name != home {
						t.Errorf("evicted %q, want %q", h.Name, home)
					}
				} else if !h.Reachable {
					t.Errorf("live node %q reported unreachable", h.Name)
				}
			}
			if evicted != 1 {
				t.Fatalf("evicted = %d nodes, want 1", evicted)
			}
		}
		if err := st.Push(f); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != ref {
		t.Error("digest diverges from sequential run after kill + health eviction")
	}
	if st.Recoveries() != 1 || st.Replayed() < 1 {
		t.Errorf("recoveries = %d, replayed = %d; want 1 and >= 1", st.Recoveries(), st.Replayed())
	}

	// A replacement node on the same address: the next probe re-admits it.
	repl := NewNode(NodeConfig{Name: home})
	if _, err := repl.Start(homeAddr); err != nil {
		t.Fatalf("replacement node on %s: %v", homeAddr, err)
	}
	defer func() {
		if err := repl.Close(); err != nil {
			t.Errorf("replacement close: %v", err)
		}
	}()
	readmitted := false
	for _, h := range r.CheckHealth() {
		if h.Name == home {
			if !h.Reachable || h.Evicted || !h.Readmitted {
				t.Errorf("replacement probe: %+v, want reachable + readmitted", h)
			}
			readmitted = h.Readmitted
		}
	}
	if !readmitted {
		t.Fatal("replacement node never re-admitted")
	}
	// Back in placement for real: the strict stats poll reaches all three.
	sts, err := r.Stats()
	if err != nil {
		t.Fatalf("stats after re-admission: %v", err)
	}
	if len(sts) != 3 {
		t.Fatalf("stats count = %d, want 3", len(sts))
	}
}

// TestNodeLostWithoutRecovery pins the satellite contract: with recovery
// disabled, node death surfaces as ErrNodeLost carrying the node's name and
// the acknowledged frame count, and Close returns the partial summary.
func TestNodeLostWithoutRecovery(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 4)
	r, _, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})
	st, err := r.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	home := st.Node()
	for i := 0; i < 2; i++ {
		if err := st.Push(seq.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	injs[home].Kill()
	err = st.Push(seq.Frames[2])
	if !errors.Is(err, ErrNodeLost) {
		t.Fatalf("push on killed node: %v, want ErrNodeLost", err)
	}
	var nl *NodeLostError
	if !errors.As(err, &nl) {
		t.Fatalf("push error carries no *NodeLostError: %v", err)
	}
	if nl.Node != home || nl.Acked != 2 {
		t.Errorf("NodeLostError = {Node: %q, Acked: %d}, want {%q, 2}", nl.Node, nl.Acked, home)
	}
	partial, cerr := st.Close()
	if !errors.Is(cerr, ErrNodeLost) {
		t.Fatalf("close after loss: %v, want ErrNodeLost", cerr)
	}
	if partial.Frames != 2 {
		t.Errorf("partial summary frames = %d, want 2", partial.Frames)
	}
	if partial.Digest != ([32]byte{}) {
		t.Error("partial summary carries a digest; it must be zero (unknowable)")
	}
}

// TestNodeLostAtClose covers loss discovered by Close itself rather than a
// push.
func TestNodeLostAtClose(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 2)
	r, _, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}})
	st, err := r.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames {
		if err := st.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	injs["a"].Kill()
	partial, cerr := st.Close()
	if !errors.Is(cerr, ErrNodeLost) {
		t.Fatalf("close on killed node: %v, want ErrNodeLost", cerr)
	}
	var nl *NodeLostError
	if !errors.As(cerr, &nl) || nl.Acked != len(seq.Frames) {
		t.Fatalf("close error: %v, want *NodeLostError with Acked=%d", cerr, len(seq.Frames))
	}
	if partial.Frames != len(seq.Frames) {
		t.Errorf("partial frames = %d, want %d", partial.Frames, len(seq.Frames))
	}
}

// TestRecoveryExhaustionBackoff kills the whole fleet: recovery must walk
// its bounded attempts with the deterministic doubling backoff schedule and
// surface ErrRecoveryExhausted (still an ErrNodeLost, still carrying the
// acked count).
func TestRecoveryExhaustionBackoff(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 4)
	r, _, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})
	var delays []time.Duration
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{
		CheckpointEvery: 2,
		Sleep:           func(d time.Duration) { delays = append(delays, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Push(seq.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range injs {
		in.Kill()
	}
	err = st.Push(seq.Frames[2])
	for _, want := range []error{ErrNodeLost, ErrRecoveryExhausted, ErrNoPeer} {
		if !errors.Is(err, want) {
			t.Errorf("exhausted push error %v does not wrap %v", err, want)
		}
	}
	var nl *NodeLostError
	if !errors.As(err, &nl) || nl.Acked != 2 {
		t.Fatalf("exhausted error: %v, want *NodeLostError with Acked=2", err)
	}
	// Attempt 0 runs immediately; attempts 1 to 3 back off 5, 10 and 20 ms.
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	if !slices.Equal(delays, want) {
		t.Errorf("backoff schedule = %v, want %v", delays, want)
	}
	if _, cerr := st.Close(); !errors.Is(cerr, ErrNodeLost) {
		t.Errorf("close after exhaustion: %v, want ErrNodeLost", cerr)
	}
}

// TestRejectedFrameFailsItsPush pushes a frame that decodes but does not fit
// the stream's camera: the node processes a frame before it acknowledges it,
// so the push that carried it fails, with the node's error and not as a node
// loss, and recovery stays out of it. The node's other tenant, pushed in
// between, still closes on its sequential digest.
func TestRejectedFrameFailsItsPush(t *testing.T) {
	cfg := fastCfg()
	seq, other := testSeq(t, "Desk", 4), testSeq(t, "Xyz", 4)
	wrong := scene.MustGenerate("Desk", scene.Config{Width: tw + 8, Height: th + 8, Frames: 1, Seed: 1}).Frames[0]
	ref := sequentialDigest(t, cfg, other)

	r, _ := startFleet(t, []NodeConfig{{Name: "a"}})
	bad, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.Open(other.Name, cfg, other.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range other.Frames {
		if err := good.Push(f); err != nil {
			t.Fatal(err)
		}
		switch {
		case i < 2:
			if err := bad.Push(seq.Frames[i]); err != nil { // the second push takes a checkpoint
				t.Fatal(err)
			}
		case i == 2:
			err := bad.Push(wrong)
			var re *remoteError
			if !errors.As(err, &re) || errors.Is(err, ErrNodeLost) || !strings.Contains(err.Error(), "does not match camera") {
				t.Fatalf("push of a mismatched frame: %v, want the node's frame-size error, not a node loss", err)
			}
			if bad.Recoveries() != 0 {
				t.Errorf("a rejected frame triggered %d recoveries", bad.Recoveries())
			}
		}
	}
	if _, err := bad.Close(); err == nil || errors.Is(err, ErrNodeLost) {
		t.Errorf("close of the failed stream: %v, want the node's error", err)
	}
	sum, err := good.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != ref {
		t.Error("the other tenant's digest differs from its sequential run")
	}
}

// TestSeverOnlyConnRecoversInPlace severs just the stream's connection: the
// node itself stays healthy, so recovery may land right back on it — and the
// digest must still be exact. No eviction should happen.
func TestSeverOnlyConnRecoversInPlace(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 6)
	ref := sequentialDigest(t, cfg, seq)

	r, _, injs := startChaosFleet(t, []NodeConfig{{Name: "a"}, {Name: "b"}})
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range seq.Frames {
		if i == 3 {
			// Up to here the injector only passed bytes through.
			if st.Recoveries() != 0 {
				t.Errorf("unarmed injector caused %d recoveries", st.Recoveries())
			}
			injs[st.Node()].ArmSever(1)
		}
		if err := st.Push(f); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != ref {
		t.Error("severed stream digest diverges from sequential run")
	}
	if st.Recoveries() != 1 || st.Replayed() < 1 {
		t.Errorf("recoveries = %d, replayed = %d; want 1 and >= 1", st.Recoveries(), st.Replayed())
	}
	for _, h := range r.CheckHealth() {
		if h.Evicted {
			t.Errorf("node %q evicted after a single-conn sever", h.Name)
		}
	}
}
