package fleet

import (
	"bytes"
	"net"
	"os"
	"runtime"
	"slices"
	"testing"

	"ags/internal/binfmt"
	"ags/internal/scene"
	"ags/internal/slam"
)

// captureConn is a connection that only records what is written to it.
type captureConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *captureConn) Write(b []byte) (int, error) { return c.out.Write(b) }

// TestInPlaceSendMatchesGolden frames every golden message the way a node
// ships a snapshot — begin, the payload appended behind the header in the
// wire's own buffer, finish — and compares what reaches the connection with
// the golden file and with appendMessage, byte for byte: with a buffer the
// payload outgrows, with a warm one, and with one that held a longer message.
func TestInPlaceSendMatchesGolden(t *testing.T) {
	c := &captureConn{}
	w := newWire(c)
	for round := 0; round < 2; round++ {
		for _, m := range goldenMessages() {
			want, err := os.ReadFile(goldenFile(m.name))
			if err != nil {
				t.Fatal(err)
			}
			c.out.Reset()
			e := binfmt.Enc{Buf: w.begin(m.v)}
			for _, b := range m.p { // many small appends, like an encoder
				e.U8(b)
			}
			if err := w.finish(e.Buf); err != nil {
				t.Fatal(err)
			}
			if got := c.out.Bytes(); !bytes.Equal(got, want) || !bytes.Equal(got, appendMessage(nil, m.v, m.p)) {
				t.Errorf("round %d, %s: in-place send wrote %d bytes that differ from the golden message (%d bytes)",
					round, m.name, len(got), len(want))
			}
			if &w.wbuf[0] != &e.Buf[0] {
				t.Errorf("round %d, %s: finish did not keep the buffer the payload was appended to", round, m.name)
			}
		}
	}
}

// TestAdoptedCheckpointSurvivesNextRecv is the ownership rule of the
// zero-copy checkpoint: once a stream has adopted a received snapshot, later
// receives on the same wire (push replies, the next snapshot) land in another
// buffer, and a checkpoint that is replaced becomes that other buffer.
func TestAdoptedCheckpointSurvivesNextRecv(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 6)
	r, _ := startFleet(t, []NodeConfig{{Name: "a"}})
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	push := func(i int) {
		t.Helper()
		if err := st.Push(seq.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	push(0)
	push(1) // checkpoint 1
	if st.checkpointFrames != 2 || len(st.checkpoint) == 0 {
		t.Fatalf("no checkpoint after 2 pushes (at frame %d, %d bytes)", st.checkpointFrames, len(st.checkpoint))
	}
	first := st.checkpoint
	want := bytes.Clone(first)
	if cap(st.w.rbuf) > 0 && &st.w.rbuf[:1][0] == &first[0] {
		t.Fatal("the wire still reads into the adopted checkpoint's buffer")
	}
	push(2) // an OK reply is received on the same wire
	if !bytes.Equal(first, want) {
		t.Fatal("a push reply overwrote the adopted checkpoint")
	}
	restoreCheckpoint(t, st)
	push(3) // checkpoint 2 replaces it
	if st.checkpointFrames != 4 || &st.checkpoint[0] == &first[0] {
		t.Fatalf("checkpoint 2 (at frame %d) was received into checkpoint 1's buffer while it was live", st.checkpointFrames)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("receiving checkpoint 2 overwrote checkpoint 1, the only copy until the receive completes")
	}
	if &st.w.rbuf[:1][0] != &first[0] {
		t.Error("the replaced checkpoint's buffer did not become the wire's read buffer")
	}
	second := bytes.Clone(st.checkpoint)
	push(4) // lands in checkpoint 1's old buffer
	if !bytes.Equal(st.checkpoint, second) {
		t.Fatal("a push reply overwrote checkpoint 2")
	}
	push(5)
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ref := sequentialDigest(t, cfg, seq); sum.Digest != ref {
		t.Errorf("digest %x != sequential %x", sum.Digest, ref)
	}
}

// restoreCheckpoint restores the stream's checkpoint with its held frames, the
// way a node does (the frames decoded from their pushed bytes), on a server of
// its own, and returns the frame it restored at. It fails the test when the
// held set is not exactly what the checkpoint leaves out.
func restoreCheckpoint(t *testing.T, st *Stream) int {
	t.Helper()
	missing, err := slam.MissingFrames(nil, st.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]slam.HeldFrame, len(st.held))
	positions := make([]int, len(st.held))
	for i, h := range st.held {
		f, err := slam.DecodeFrame(h.b)
		if err != nil {
			t.Fatalf("held frame at position %d: %v", h.pos, err)
		}
		held[i], positions[i] = slam.HeldFrame{Pos: h.pos, Frame: f}, h.pos
	}
	if !slices.Equal(missing, positions) {
		t.Fatalf("checkpoint at frame %d leaves out positions %v, the stream holds %v", st.checkpointFrames, missing, positions)
	}
	srv := slam.NewServer(slam.ServerConfig{})
	sess, n, err := srv.RestoreSession(st.name, st.checkpoint, held)
	if err != nil {
		t.Fatalf("checkpoint at frame %d does not restore with its held frames: %v", st.checkpointFrames, err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// streamSlots returns the backing arrays of every frame slot the stream owns:
// held, replayed and spare.
func streamSlots(st *Stream) []*byte {
	var slots []*byte
	for _, h := range st.held {
		slots = append(slots, &h.b[0])
	}
	for _, b := range st.replay[:cap(st.replay)] {
		if b != nil {
			slots = append(slots, &b[:1][0])
		}
	}
	return slots
}

// windowStream is a long, cheap stream whose session keeps a full key-frame
// window: 8x8 frames (one macro-block) through baseline mapping with every
// frame windowed and a handful of iterations, so two hundred frames take under
// a second, and a few under the race detector.
func windowStream(t *testing.T, frames int) (slam.Config, *scene.Sequence) {
	t.Helper()
	cfg := fastCfg()
	cfg.EnableMAT, cfg.EnableGCM = false, false
	cfg.KeyframeEvery = 1
	cfg.TrackIters, cfg.Mapper.MapIters, cfg.Mapper.DensifyStride = 3, 2, 4
	return cfg, scene.MustGenerate("Desk", scene.Config{Width: 8, Height: 8, Frames: frames, Seed: 1})
}

// TestCheckpointHeldSetInvariant is the router's half of the frame table,
// checked after every checkpoint of a 200-frame stream. The frames the
// checkpoint names without a body are exactly the held set, in order, and the
// held bytes are the frames as pushed; checkpoint and held set restore (the way
// a node restores them) at the checkpoint's frame; together they are byte for
// byte as large as the snapshot a requester holding nothing gets at the same
// point, so the stream's resident bytes did not grow; and the held set never
// exceeds the key-frame window plus the previous and the key frame, nor the
// slots the stream owns that plus a replay window.
func TestCheckpointHeldSetInvariant(t *testing.T) {
	const frames, every = 200, 5
	cfg, seq := windowStream(t, frames)
	want := sequentialDigest(t, cfg, seq)
	r, _ := startFleet(t, []NodeConfig{{Name: "a"}})
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	window, most := cfg.Mapper.KeyframeWindow, 0
	for i, f := range seq.Frames {
		if err := st.Push(f); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every != 0 {
			continue
		}
		if st.checkpointFrames != i+1 || len(st.replay) != 0 {
			t.Fatalf("after push %d the checkpoint is at frame %d with %d frames to replay", i, st.checkpointFrames, len(st.replay))
		}
		if n := restoreCheckpoint(t, st); n != i+1 {
			t.Fatalf("checkpoint at frame %d restores at frame %d", i+1, n)
		}
		heldBytes := 0
		for _, h := range st.held {
			if !bytes.Equal(h.b, slam.AppendFrame(nil, seq.Frames[h.pos])) {
				t.Fatalf("checkpoint at frame %d: held position %d is not that frame as pushed", i+1, h.pos)
			}
			heldBytes += len(h.b)
		}
		most = max(most, len(st.held))
		if len(st.held) > window+2 || len(streamSlots(st)) > window+2+every+1 {
			t.Fatalf("checkpoint at frame %d: %d frames held in %d slots, window %d", i+1, len(st.held), len(streamSlots(st)), window)
		}
		// The same session state, asked for by a requester that holds nothing.
		rv, full, err := st.w.roundTrip(vSnapshot, encodePositions(nil, nil))
		if err != nil || rv != vSnapData {
			t.Fatalf("full snapshot at frame %d: %s, %v", i+1, rv, err)
		}
		if missing, err := slam.MissingFrames(nil, full); err != nil || len(missing) != 0 {
			t.Fatalf("a snapshot asked for with an empty list leaves out %v (%v)", missing, err)
		}
		if len(full) != len(st.checkpoint)+heldBytes {
			t.Fatalf("checkpoint at frame %d: %d bytes + %d held, the full snapshot is %d", i+1, len(st.checkpoint), heldBytes, len(full))
		}
	}
	if most < window {
		t.Errorf("the held set peaked at %d frames; the window (%d) never filled", most, window)
	}
	sum, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != want {
		t.Error("digest diverges from the sequential run")
	}
}

// TestCheckpointAllocBudget bounds what the checkpoint path allocates. A
// checkpoint lives in three buffers — the node connection's write buffer and
// the two the router trades between its wire and its stream — and each at
// least doubles when it has to be re-made. A buffer grown that way has cost at
// most twice its final capacity, which is under twice the largest snapshot, so
// N checkpoints of a growing session allocate under 3 x 2 x 2 = 12 x the last
// one however many they are (3 x is the floor: each buffer has to hold one).
// Copying every snapshot from buffer to buffer at its exact size, as this
// path used to (five copies), costs 5 x the sum of all N sizes: over 20 x the
// last one here. The session is idle around each measured checkpoint (every
// pushed frame's mapping has handed its render context back to the pool), so
// the delta is the checkpoint path's own.
//
// A session's snapshot grows with its map, not with its age (sessions keep no
// trace detail) and not with its key-frame window (the stream holds those
// frames), so the stream is the rotation-heavy S2, where every frame is a key
// frame and densifies.
//
// The frames themselves cost the checkpoint path nothing. Every S2 frame
// enters the key-frame window, which is full after eight, so from the fifth
// checkpoint on the stream owns a fixed set of slots (eight held, two for
// replay) that change roles and are never re-made: the same backing arrays
// before and after each later checkpoint.
func TestCheckpointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	const checkpoints, every = 8, 2
	cfg := fastCfg()
	seq := testSeq(t, "S2", checkpoints*every)
	r, nodes := startFleet(t, []NodeConfig{{Name: "a"}})
	// Recovery armed, but the cadence never fires: the test takes the
	// checkpoints itself, between measurements.
	st, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: len(seq.Frames) + 1})
	if err != nil {
		t.Fatal(err)
	}
	var allocated, first, sum uint64
	var ms runtime.MemStats
	var warm []*byte
	for i, f := range seq.Frames {
		if err := st.Push(f); err != nil {
			t.Fatal(err)
		}
		for nodes[0].Server().PoolStats().Idle == 0 {
			runtime.Gosched() // frame i is still being mapped
		}
		if (i+1)%every != 0 {
			continue
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := st.takeCheckpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - before
		// warm is the slots as the previous checkpoint left them: the two
		// pushes since and this checkpoint must have made none.
		now := streamSlots(st)
		if window := cfg.Mapper.KeyframeWindow; i+1 >= window+2*every {
			if len(st.held) != window || len(now) != window+every {
				t.Errorf("checkpoint at frame %d: %d held of %d slots, want %d of %d", i+1, len(st.held), len(now), window, window+every)
			}
			for _, p := range now {
				if !slices.Contains(warm, p) {
					t.Errorf("checkpoint at frame %d: a frame slot was made after the window had filled", i+1)
				}
			}
		}
		warm = now
		sum += uint64(len(st.checkpoint))
		if first == 0 {
			first = uint64(len(st.checkpoint))
		}
	}
	last := uint64(len(st.checkpoint))
	if last < 2*first {
		t.Fatalf("the session did not grow enough to re-make a buffer: first checkpoint %d bytes, last %d", first, last)
	}
	t.Logf("%d checkpoints, %d KiB in all, the first %d KiB, the last %d KiB: allocated %d KiB, %.1f x the last",
		checkpoints, sum>>10, first>>10, last>>10, allocated>>10, float64(allocated)/float64(last))
	if allocated > 12*last {
		t.Errorf("%d checkpoints allocated %d KiB, over 12 x the last snapshot (%d KiB)", checkpoints, allocated>>10, last>>10)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
