package slam

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGoldenSnapshot pins SnapshotVersion 1 by length and SHA-256: the
// AGSSNAP of a fixed-seed AGS run with pruning and compaction on, six frames
// in. The golden line was written once, by the encoder the format was
// introduced with, and there is no regeneration switch — a moved byte takes a
// SnapshotVersion bump. The run's floats depend on whether the compiler fuses
// multiply-adds, so the line holds for amd64 only.
func TestGoldenSnapshot(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden snapshot recorded on amd64")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot.sum.golden"))
	if err != nil {
		t.Fatal(err)
	}
	seq := testSeq(t, "Desk", 6)
	sys := New(compactCfg(tw, th), seq.Intr)
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
	if got := fmt.Sprintf("%d %x\n", buf.Len(), sha256.Sum256(buf.Bytes())); got != string(want) {
		t.Errorf("snapshot bytes moved: got %swant %s", got, want)
	}
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
