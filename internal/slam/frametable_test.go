package slam

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
	"testing"

	"ags/internal/binfmt"
	"ags/internal/frame"
	"ags/internal/scene"
)

// tableEntry is one frame table entry as it lies in a snapshot: the position
// and the body's bytes (none for a body-less entry).
type tableEntry struct {
	pos  int64
	body []byte
}

// splitSnapshot cuts a snapshot around its frame table: the bytes before it
// (header included), the entries, and the bytes between the table and the
// checksum.
func splitSnapshot(t testing.TB, snap []byte) (head []byte, table []tableEntry, tail []byte) {
	t.Helper()
	payload, err := snapshotPayload(snap)
	if err != nil {
		t.Fatal(err)
	}
	d := binfmt.NewDec(payload)
	skipToFrameTable(d)
	head = snap[:snapshotHeader+len(payload)-d.Remaining()]
	table = make([]tableEntry, d.Len(frameEntryMin))
	for i := range table {
		table[i] = tableEntry{pos: d.I64(), body: d.Bytes()}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return head, table, payload[len(payload)-d.Remaining():]
}

// joinSnapshot is splitSnapshot's inverse, with a fresh checksum: bytes any
// peer can produce.
func joinSnapshot(head []byte, table []tableEntry, tail []byte) []byte {
	e := binfmt.Enc{Buf: slices.Clone(head)}
	e.U64(uint64(len(table)))
	for _, en := range table {
		e.I64(en.pos)
		e.Bytes(en.body)
	}
	e.Raw(tail)
	sum := sha256.Sum256(e.Buf)
	return append(e.Buf, sum[:]...)
}

// retable returns snap with edit applied to its frame table.
func retable(t testing.TB, snap []byte, edit func([]tableEntry) []tableEntry) []byte {
	t.Helper()
	head, table, tail := splitSnapshot(t, snap)
	return joinSnapshot(head, edit(table), tail)
}

// wireFrame is f as a requester holds it: what comes out of the bytes that
// were pushed.
func wireFrame(t testing.TB, f *frame.Frame) *frame.Frame {
	t.Helper()
	out, err := DecodeFrame(AppendFrame(nil, f))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLeanSnapshotRestoresWithHeldFrames is the frame table's contract. A
// snapshot taken with a have list names the frames at those positions without
// their bodies, is smaller by exactly those bodies, lists them through
// MissingFrames, and restores, together with the frames as they were pushed,
// into a session that closes on the uninterrupted digest. Positions the
// session does not retain are ignored; the restored system aliases one frame
// per table entry, as the snapshotted one did. The baseline config fills the
// key-frame window, so the table holds more than the previous and key frame.
func TestLeanSnapshotRestoresWithHeldFrames(t *testing.T) {
	const frames, k = 10, 7
	for name, cfg := range map[string]Config{"baseline": fastCfg(tw, th), "ags": fastAGS(tw, th)} {
		t.Run(name, func(t *testing.T) {
			cfg.KeyframeEvery = 2
			seq := testSeq(t, "Xyz", frames)
			_, want := runDigest(t, cfg, "Xyz", frames)

			srv := NewServer(ServerConfig{})
			sess, err := srv.Open(seq.Name, cfg, seq.Intr)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range seq.Frames[:k] {
				if err := sess.Push(f); err != nil {
					t.Fatal(err)
				}
			}
			full, err := sess.AppendSnapshot(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if missing, err := MissingFrames(nil, full); err != nil || len(missing) != 0 {
				t.Fatalf("a snapshot taken with no have list leaves out %v (%v)", missing, err)
			}
			_, fullTable, _ := splitSnapshot(t, full)

			// Hold every frame pushed, and two that were never pushed.
			have := []int{k + 3, -1}
			for i := 0; i < k; i++ {
				have = append(have, i)
			}
			lean, err := sess.AppendSnapshot(nil, have)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			missing, err := MissingFrames(nil, lean)
			if err != nil {
				t.Fatal(err)
			}
			var bodies int
			var positions []int
			for _, en := range fullTable {
				bodies += len(en.body)
				positions = append(positions, int(en.pos))
			}
			// Baseline mapping windows every second frame; AGS on Xyz keeps
			// the bootstrap key frame and the previous frame.
			atLeast := 2
			if !cfg.EnableGCM {
				atLeast = 4
			}
			if !slices.Equal(missing, positions) || len(missing) < atLeast {
				t.Fatalf("lean snapshot leaves out positions %v, the session retains %v (want all, and at least %d)", missing, positions, atLeast)
			}
			if len(lean) != len(full)-bodies {
				t.Errorf("lean snapshot is %d bytes, want %d less the %d of frame bodies", len(lean), len(full), bodies)
			}
			if !slices.Contains(missing, k-1) {
				t.Errorf("the previous frame (position %d) is not in the table %v", k-1, missing)
			}

			held := make([]HeldFrame, len(missing))
			for i, pos := range missing {
				held[i] = HeldFrame{Pos: pos, Frame: wireFrame(t, seq.Frames[pos])}
			}
			if _, _, err := srv.RestoreSession("alone", lean, nil); !errors.Is(err, ErrFrameTable) {
				t.Errorf("a lean snapshot restored on its own: %v", err)
			}
			if _, err := Restore(bytes.NewReader(lean)); !errors.Is(err, ErrFrameTable) {
				t.Errorf("a lean snapshot restored through Restore: %v", err)
			}
			restored, n, err := srv.RestoreSession(seq.Name, lean, held)
			if err != nil {
				t.Fatal(err)
			}
			if n != k {
				t.Fatalf("restored at frame %d, want %d", n, k)
			}

			// One pointer per table entry: the supplied frame itself.
			sys := restored.sys
			at := func(pos int) *frame.Frame { return held[slices.Index(missing, pos)].Frame }
			if sys.prevFrame != at(k-1) || sys.keyFrame != at(sys.keyFramePos) {
				t.Error("the restored previous or key frame is not the supplied frame at its position")
			}
			for _, kf := range sys.mapper.ExportState().Keyframes {
				if kf.Frame != at(kf.Pos) {
					t.Errorf("window entry at position %d is not the supplied frame", kf.Pos)
				}
			}
			// And it snapshots to the bytes the original did.
			if again, err := restored.AppendSnapshot(nil, have); err != nil || !bytes.Equal(again, lean) {
				t.Errorf("the restored session's lean snapshot differs from the one it came from (%v)", err)
			}
			if again, err := restored.AppendSnapshot(nil, nil); err != nil || !bytes.Equal(again, full) {
				t.Errorf("the restored session's full snapshot differs from the original's (%v)", err)
			}

			res := pushAll(t, restored, seq.Frames[k:])
			if res.Digest() != want {
				t.Error("digest after a lean restore diverges from the uninterrupted run")
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreRefusesMismatchedHeldFrames: a restore is handed exactly the
// frames its snapshot leaves out, or it is refused by name and no session is
// opened. The table and the list both arrive from outside (a fleet RESTORE).
func TestRestoreRefusesMismatchedHeldFrames(t *testing.T) {
	const k = 4
	cfg := fastAGS(tw, th)
	seq := testSeq(t, "Desk", k)
	sys := New(cfg, seq.Intr)
	for _, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	lean := sys.AppendSnapshot(nil, []int{0, 1, 2, 3})
	sys.Close()
	missing, err := MissingFrames(nil, lean)
	if err != nil || len(missing) < 2 {
		t.Fatalf("lean snapshot leaves out %v (%v), want at least the previous and the key frame", missing, err)
	}
	good := func() []HeldFrame {
		held := make([]HeldFrame, len(missing))
		for i, pos := range missing {
			held[i] = HeldFrame{Pos: pos, Frame: wireFrame(t, seq.Frames[pos])}
		}
		return held
	}
	short := wireFrame(t, seq.Frames[missing[0]])
	short.Depth.D = short.Depth.D[:10]
	small := wireFrame(t, scene.MustGenerate("Desk", scene.Config{Width: tw / 2, Height: th / 2, Frames: 1, Seed: 1}).Frames[0])

	srv := NewServer(ServerConfig{})
	for _, tc := range []struct {
		name string
		held []HeldFrame
	}{
		{"one missing", good()[1:]},
		{"none", nil},
		{"one extra", append(good(), HeldFrame{Pos: k + 5, Frame: wireFrame(t, seq.Frames[0])})},
		{"unasked position instead", append(good()[1:], HeldFrame{Pos: 1 << 40, Frame: wireFrame(t, seq.Frames[0])})},
		{"duplicate", append(good()[:1], good()...)},
		{"nil frame", append(good()[1:], HeldFrame{Pos: missing[0]})},
		{"short depth plane", append(good()[1:], HeldFrame{Pos: missing[0], Frame: short})},
		{"wrong size", append(good()[1:], HeldFrame{Pos: missing[0], Frame: small})},
	} {
		if _, _, err := srv.RestoreSession(tc.name, lean, tc.held); !errors.Is(err, ErrFrameTable) {
			t.Errorf("%s: restore answered %v, want ErrFrameTable", tc.name, err)
		}
	}
	sess, n, err := srv.RestoreSession("good", lean, good())
	if err != nil || n != k {
		t.Fatalf("the matching list was refused: frame %d, %v", n, err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // the refused restores left no session open
		t.Fatal(err)
	}
}
