package slam

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"ags/internal/binfmt"
	"ags/internal/frame"
	"ags/internal/scene"
)

// TestGoldenSnapshot pins SnapshotVersion 13 by length and SHA-256: the
// AGSSNAP of a fixed-seed AGS run, six frames in, once as
// Snapshot writes it (every frame body inline) and once as a fleet checkpoint
// is taken (by a requester that holds every frame pushed, so the frame table
// is positions only). Either holds the sixth frame's mapping tail pending,
// with its record, behind the hash chain and ATE moments of the five before.
// The golden lines were written by the encoder the version was introduced
// with. There is no regeneration switch — a moved format byte takes a
// SnapshotVersion bump and new files (version 1's were snapshot.sum.golden,
// version 2's *.v2.sum.golden, and so on to version 11's *.v11.sum.golden,
// which were re-recorded in place when the training pass began to scale its
// merged loss and gradient sums by 1/Pixels once, moving the floats and no
// format byte). Version 12's differed from version 11's in the
// configuration's dropped Thresh_T and contributing-pixel bound, the pending
// tail's record (each decision once, no stream position or refinement
// count), the hash chain over those records, the version word and the
// checksum. Version 13's are of the same run without its prune settings
// (a prune every second frame, an opacity threshold of 0.25 and a logit
// learning rate of 0.2), which version 12 ran, so the map itself differs too;
// the configuration drops those three values and the record the pruned
// count. The
// run is an offline one, which keeps trace detail in memory; neither snapshot
// carries it. The run's floats depend on whether the compiler fuses
// multiply-adds, so the lines hold for amd64 only.
func TestGoldenSnapshot(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden snapshot recorded on amd64")
	}
	seq := testSeq(t, "Desk", 6)
	sys := New(fastAGS(tw, th), seq.Intr)
	defer sys.Close()
	for _, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		snap []byte
	}{
		{"snapshot.v13.sum.golden", buf.Bytes()},
		{"snapshot-lean.v13.sum.golden", sys.AppendSnapshot(nil, []int{0, 1, 2, 3, 4, 5})},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%d %x\n", len(g.snap), sha256.Sum256(g.snap)); got != string(want) {
			t.Errorf("%s: snapshot bytes moved: got %swant %s", g.file, got, want)
		}
	}
}

// The restore seed is a whole small restore, in bytes: a lean snapshot of a
// 16x12 AGS run three frames in, its third frame's tail pending
// (restore.v13.golden), and the frames it leaves out, as a count and then
// position and length-prefixed AppendFrame bytes each
// (restore-frames.v13.golden, the shape fleet's RESTORE gives the list; the
// same bytes as version 9's to 12's lists). Version 13's snapshot differs
// from version 12's in the configuration's three dropped prune settings, the
// pending tail's record (no pruned count) and the hash chain over the
// records before it, the version word and the checksum. They pin the decoder on every platform
// (the bytes restore and the stream goes on), the encoder on amd64, and they
// seed FuzzRestoreSession.
const seedW, seedH, seedFrames = 16, 12, 3

func seedConfig() Config {
	cfg := fastAGS(seedW, seedH)
	cfg.TrackIters, cfg.IterT, cfg.Mapper.MapIters = 3, 2, 2
	return cfg
}

// seedSeq is the seed's stream, one frame longer than the snapshot is old.
func seedSeq() *scene.Sequence {
	return scene.MustGenerate("Desk", scene.Config{Width: seedW, Height: seedH, Frames: seedFrames + 1, Seed: 1})
}

func readSeed(t testing.TB) (snap, list []byte) {
	t.Helper()
	snap, err := os.ReadFile(filepath.Join("testdata", "restore.v13.golden"))
	if err != nil {
		t.Fatal(err)
	}
	list, err = os.ReadFile(filepath.Join("testdata", "restore-frames.v13.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return snap, list
}

// decodeHeldList reads a frame list in the seed's shape; nil when the bytes
// are not one.
func decodeHeldList(list []byte) []HeldFrame {
	d := binfmt.NewDec(list)
	held := make([]HeldFrame, d.Len(16))
	for i := range held {
		pos, fb := int(d.I64()), d.Bytes()
		f, err := DecodeFrame(fb)
		if d.Err() != nil || err != nil {
			return nil
		}
		held[i] = HeldFrame{Pos: pos, Frame: f}
	}
	if d.Finish("frame list") != nil {
		return nil
	}
	return held
}

func TestGoldenRestoreSeed(t *testing.T) {
	snap, list := readSeed(t)
	seq := seedSeq()
	held := decodeHeldList(list)
	if len(held) == 0 {
		t.Fatal("the golden frame list does not decode")
	}
	srv := NewServer(ServerConfig{})
	sess, n, err := srv.RestoreSession("seed", snap, held)
	if err != nil || n != seedFrames {
		t.Fatalf("golden restore: frame %d, %v", n, err)
	}
	res := pushAll(t, sess, seq.Frames[seedFrames:])
	if res.Frames != seedFrames+1 {
		t.Errorf("the restored stream closed with %d frames, want %d", res.Frames, seedFrames+1)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if runtime.GOARCH != "amd64" {
		return // the run's floats depend on multiply-add fusing
	}
	sys := New(seedConfig(), seq.Intr)
	defer sys.Close()
	for _, f := range seq.Frames[:seedFrames] {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	lean := sys.AppendSnapshot(nil, []int{0, 1, 2})
	if !bytes.Equal(lean, snap) {
		t.Errorf("the seed snapshot moved (%d bytes, golden %d)", len(lean), len(snap))
	}
	if !bytes.Equal(seedList(t, lean, seq), list) {
		t.Error("the seed frame list moved")
	}
}

// seedList encodes the frames lean leaves out, from seq.
func seedList(t testing.TB, lean []byte, seq *scene.Sequence) []byte {
	t.Helper()
	missing, err := MissingFrames(nil, lean)
	if err != nil {
		t.Fatal(err)
	}
	var e binfmt.Enc
	e.U64(uint64(len(missing)))
	for _, pos := range missing {
		e.I64(int64(pos))
		e.Bytes(AppendFrame(nil, seq.Frames[pos]))
	}
	return e.Buf
}

// FuzzRestoreSession throws bytes at the one door a remote peer's state comes
// in through: RestoreSession, then one Push (where a restored-but-wrong system
// used to blow up, on the session's goroutine, under every tenant), then Close.
// The fuzzed bytes are the snapshot's payload behind the configuration and the
// intrinsics, which stay the seed's (a fuzzed iteration count is a hang, not a
// crash; that is Config.Validate's to refuse), and the frame list; the harness
// frames and sums them as any peer can. Nothing may panic, and a restore may
// not allocate more than a fixed multiple of what it was sent.
func FuzzRestoreSession(f *testing.F) {
	snap, list := readSeed(f)
	head, table, tail := splitSnapshot(f, snap)
	fixed := len(head) - 8 - 3*7*8 // header, configuration, intrinsics
	f.Add(snap[fixed:len(snap)-sha256.Size], list)
	// The same state with every body inline and nothing supplied.
	held := decodeHeldList(list)
	for i := range table {
		table[i].body = AppendFrame(nil, held[i].Frame)
	}
	full := joinSnapshot(head, table, tail)
	noFrames := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	f.Add(full[fixed:len(full)-sha256.Size], noFrames)
	next := seedSeq().Frames[seedFrames]
	srv := NewServer(ServerConfig{})

	f.Fuzz(func(t *testing.T, payload, list []byte) {
		data := append(slices.Clone(snap[:fixed]), payload...)
		sum := sha256.Sum256(data)
		data = append(data, sum[:]...)
		held := decodeHeldList(list)

		var sess *Session
		var err error
		// A fresh system costs half a MiB before a byte is decoded (the
		// mapper's empty cloud is made with room to grow).
		got := allocated(func() { sess, _, err = srv.RestoreSession("fuzz", data, held) })
		if limit := uint64(1<<20 + 8*(len(payload)+len(list))); got > limit {
			t.Fatalf("restoring %d+%d bytes allocated %d, over %d", len(payload), len(list), got, limit)
		}
		if err != nil {
			return
		}
		_ = sess.Push(next) // a refused frame is fine; a panic is not
		_, _ = sess.Close()
	})
}

// TestDecodeFrameRejectsOverflowingSize: a frame whose declared width times
// height overflows int must come back as an error. It used to wrap negative,
// pass the size guard and panic in make — on a fleet node, inside a
// connection handler with no recover.
func TestDecodeFrameRejectsOverflowingSize(t *testing.T) {
	seq := testSeq(t, "Desk", 1)
	b := AppendFrame(nil, seq.Frames[0])
	const sizeOff = 8 + 7*8 // index, then the ground-truth pose
	for _, wh := range [][2]int64{
		{3037000500, 3037000500}, // product wraps past MaxInt64
		{1 << 62, 4},
		{-1, 1},
		{1 << 40, 1 << 40},
	} {
		binary.LittleEndian.PutUint64(b[sizeOff:], uint64(wh[0]))
		binary.LittleEndian.PutUint64(b[sizeOff+8:], uint64(wh[1]))
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("frame declaring %dx%d pixels decoded without error", wh[0], wh[1])
		}
	}
}

// allocated returns the bytes the heap handed out while call ran. The count
// is the process's: under -fuzz the worker's own bookkeeping allocates some
// kilobytes beside the call, which the budgets below leave room for.
func allocated(call func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	call()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// FuzzDecodeFrame throws bytes at the decoder every pushed frame goes
// through, seeded with the frames of the golden restore's frame list. Nothing
// may panic, a decode may not allocate more than a fixed multiple of what it
// was sent, and a frame that decodes encodes back to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	_, list := readSeed(f)
	for _, h := range decodeHeldList(list) {
		f.Add(AppendFrame(nil, h.Frame))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var fr *frame.Frame
		var err error
		if got, limit := allocated(func() { fr, err = DecodeFrame(b) }), uint64(1<<16+2*len(b)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(b), got, limit)
		}
		if err == nil && !bytes.Equal(AppendFrame(nil, fr), b) {
			t.Fatal("a decoded frame encodes to other bytes")
		}
	})
}

// FuzzDecodeConfig throws bytes at the decoder of the configuration an OPEN
// carries, seeded with the golden restore's. Nothing may panic, a decode
// allocates next to nothing whatever the bytes say, and a configuration that decodes encodes to
// bytes that decode to the same encoding.
func FuzzDecodeConfig(f *testing.F) {
	snap, _ := readSeed(f)
	payload, err := snapshotPayload(snap)
	if err != nil {
		f.Fatal(err)
	}
	d := binfmt.NewDec(payload)
	decodeConfig(d, &Config{})
	f.Add(payload[:len(payload)-d.Remaining()])
	f.Fuzz(func(t *testing.T, b []byte) {
		var c Config
		var err error
		if got := allocated(func() { c, err = DecodeConfig(b) }); got > 1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		enc := AppendConfig(nil, &c)
		again, err := DecodeConfig(enc)
		if err != nil || !bytes.Equal(AppendConfig(nil, &again), enc) {
			t.Fatalf("a decoded configuration does not re-encode stably: %v", err)
		}
	})
}
