package fleet

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ags/internal/binfmt"
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
			want, err := os.ReadFile(filepath.Join("testdata", m.name+".golden"))
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
	if sys, err := slam.Restore(bytes.NewReader(first)); err != nil {
		t.Fatalf("adopted checkpoint does not restore: %v", err)
	} else {
		sys.Close()
	}
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
// pushed frame's update has been seen), so the delta is the checkpoint path's
// own.
//
// A session's snapshot grows with its map and key-frame window, not with its
// age (sessions keep no trace detail), so the stream is the rotation-heavy S2,
// where every frame is a key frame and densifies.
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
	updates := nodes[0].Server().Sessions()[0].Results()

	var allocated, first, sum uint64
	var ms runtime.MemStats
	for i, f := range seq.Frames {
		if err := st.Push(f); err != nil {
			t.Fatal(err)
		}
		<-updates // frame i is processed; the session worker is idle again
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
