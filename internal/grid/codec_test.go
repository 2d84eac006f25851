package grid

import (
	"bytes"
	"testing"

	"ags/internal/binfmt"
	"ags/internal/scene"
	"ags/internal/slam"
)

func testJob() Job {
	cfg := slam.DefaultConfig(40, 32)
	cfg.EnableMAT, cfg.EnableGCM = true, true
	cfg.TrackIters = 8
	cfg.IterT = 3
	return Job{
		ID:    "Desk/ags/",
		Seq:   "Desk",
		Scene: scene.Config{Width: 40, Height: 32, Frames: 6, Seed: 1, VFoV: 0.9},
		Cfg:   cfg,
	}
}

func TestJobRoundTrip(t *testing.T) {
	in := testJob()
	out, err := decodeJob(encodeJob(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Seq != in.Seq || out.Scene != in.Scene {
		t.Fatalf("job round-trip: got %+v, want %+v", out, in)
	}
	// The pipeline config must cross bit-exactly: re-encoding both sides
	// through the snapshot codec compares every float by its bits.
	if !bytes.Equal(slam.AppendConfig(nil, &out.Cfg), slam.AppendConfig(nil, &in.Cfg)) {
		t.Fatal("slam.Config did not round-trip bit-exactly")
	}
}

func TestJobDecodeRejectsTrailingBytes(t *testing.T) {
	in := testJob()
	p := append(encodeJob(nil, &in), 0xFF)
	if _, err := decodeJob(p); err == nil {
		t.Fatal("decodeJob accepted a trailing byte")
	}
}

func TestJobDecodeRejectsTruncation(t *testing.T) {
	in := testJob()
	p := encodeJob(nil, &in)
	for _, n := range []int{0, 1, 7, 8, len(p) / 2, len(p) - 1} {
		if _, err := decodeJob(p[:n]); err == nil {
			t.Fatalf("decodeJob accepted a %d-byte truncation of %d", n, len(p))
		}
	}
}

func TestJobDecodeRejectsOverlongSlice(t *testing.T) {
	var e binfmt.Enc
	e.U64(1 << 40) // declared string length far beyond the payload
	if _, err := decodeJob(e.Buf); err == nil {
		t.Fatal("decodeJob accepted slice length beyond payload")
	}
}

func TestJobResultRoundTrip(t *testing.T) {
	in := jobResult{Snap: []byte("AGSSNAP pretend bytes")}
	for i := range in.Digest {
		in.Digest[i] = byte(i * 3)
	}
	out, err := decodeJobResult(encodeJobResult(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Digest != in.Digest || !bytes.Equal(out.Snap, in.Snap) {
		t.Fatalf("job-result round-trip: got %+v, want %+v", out, in)
	}
}

func TestJobResultDecodeRejectsDamage(t *testing.T) {
	in := jobResult{Snap: []byte("snap")}
	p := encodeJobResult(nil, &in)
	if _, err := decodeJobResult(p[:len(p)-1]); err == nil {
		t.Fatal("decodeJobResult accepted a truncated payload")
	}
	if _, err := decodeJobResult(append(append([]byte(nil), p...), 0x00)); err == nil {
		t.Fatal("decodeJobResult accepted a trailing byte")
	}
	if _, err := decodeJobResult(nil); err == nil {
		t.Fatal("decodeJobResult accepted an empty payload")
	}
}
