package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/mapper"
	"ags/internal/slam"
	"ags/internal/vecmath"
)

// The golden files pin ProtocolVersion 12 byte for byte: one complete AGSF
// message per payload-bearing verb, each framed by appendMessage. They were
// written once, by the encoders this version was introduced with, and there is
// no regeneration switch — a byte that moves is a wire break, which takes a
// ProtocolVersion bump and a new set of files, not an updated one. Version 1's
// set was <verb>.golden; version 2's, <verb>.v2.golden, added the snapshot
// request, which had no payload before; version 3's, <verb>.v3.golden,
// dropped three configuration slots nothing read; version 4's,
// <verb>.v4.golden, dropped the compaction knobs and the mapper's worker
// count from the configuration and the compaction totals from the result;
// version 5's, <verb>.v5.golden, differed from version 4's in the version
// byte only (slam's snapshot version 5 packs trace detail, which no message
// here carries); version 6's, <verb>.v6.golden, whose OPEN carried the
// configuration without the eight settings that became constants; version
// 7's, <verb>.v7.golden, whose OPEN carried it without the backbone; version
// 8's, <verb>.v8.golden, which differed from version 7's in the version byte
// and the checksum over it only (slam's snapshot version 8 drops the trace
// detail, which no message here carries); version 9's, <verb>.v9.golden,
// whose RESULT dropped the trajectory error, the pruned count and the
// dropped-update count; version 10's, <verb>.v10.golden, whose OPEN carried
// the configuration without the render worker count; version 11's,
// <verb>.v11.golden, whose OPEN carried the configuration without Thresh_T
// and the skip criterion's contributing-pixel bound; and version 12's is
// <verb>.v12.golden, whose OPEN carries the configuration without the prune
// cadence, the opacity threshold and the logit learning rate, and which
// differs from version 11's elsewhere in the version byte and the checksum
// over it only.

// goldenConfig sets every slam.Config field the wire carries to a distinct
// non-zero value, so a reordered, dropped or re-typed field moves a byte. It
// leaves out the three deprecated fields, which no codec carries.
func goldenConfig() slam.Config {
	return slam.Config{
		EnableMAT: true, EnableGCM: true, ForceCoarseOnly: true,
		TrackIters: 11, IterT: 3, ThreshM: 0.625,
		Mapper: mapper.Config{
			MapIters: 7, ThreshN: 13, DensifyStride: 2, KeyframeWindow: 5,
		},
		TrackLR: 0.0625, KeyframeEvery: 19, EvalFPRate: true,
	}
}

// goldenFrame builds a w x h RGB-D frame from integer arithmetic only, so its
// float bits are the same on every platform.
func goldenFrame(w, h int) *frame.Frame {
	f := &frame.Frame{
		Index: 5,
		GTPose: vecmath.Pose{
			R: vecmath.Quat{W: 0.5, X: -0.5, Y: 0.5, Z: -0.5},
			T: vecmath.Vec3{X: 1.5, Y: -2.25, Z: 3.125},
		},
		Color: &frame.Image{W: w, H: h, Pix: make([]vecmath.Vec3, w*h)},
		Depth: &frame.DepthMap{W: w, H: h, D: make([]float64, w*h)},
	}
	for i := range f.Color.Pix {
		f.Color.Pix[i] = vecmath.Vec3{X: float64(i) / 64, Y: float64(i%7) / 8, Z: float64(i%5) / 4}
		f.Depth.D[i] = 1 + float64(i)/16
	}
	return f
}

type goldenMessage struct {
	name string
	v    verb
	p    []byte
}

func goldenMessages() []goldenMessage {
	cfg := goldenConfig()
	intr := camera.Intrinsics{Fx: 52.5, Fy: 51.25, Cx: 23.5, Cy: 17.5, W: 48, H: 36}
	stats := NodeStats{Name: "node-a", OpenSessions: 3, Draining: true, MaxSessions: 8, MaxResidentBytes: 1 << 20}
	stats.Pool.Capacity, stats.Pool.Idle = 4, 2
	stats.Pool.Hits, stats.Pool.Misses, stats.Pool.Evictions = 17, 5, 1
	stats.Pool.ResidentBytes = 123456
	sum := ResultSummary{Frames: 16, NumGaussians: 900}
	for i := range sum.Digest {
		sum.Digest[i] = byte(i * 7)
	}
	return []goldenMessage{
		{"open", vOpen, encodeOpen(nil, "desk", slam.AppendConfig(nil, &cfg), slam.AppendIntrinsics(nil, &intr))},
		{"snapshot", vSnapshot, encodePositions(nil, []int{0, 8, 12, 13})},
		{"restore", vRestore, encodeRestore(nil, "desk", []byte("AGSSNAP\x00 stand-in bytes"), []heldFrame{
			{pos: 8, b: slam.AppendFrame(nil, goldenFrame(2, 1))},
			{pos: 13, b: slam.AppendFrame(nil, goldenFrame(1, 2))},
		})},
		{"ok", vOK, encodeOK(nil, 7)},
		{"err", vErrReply, encodeErrReply(nil, codeAdmission, "node-a is full")},
		{"stats", vStatsData, encodeStats(nil, &stats)},
		{"result", vResult, encodeResult(nil, &sum)},
	}
}

// goldenFile names the current version's golden file for a message.
func goldenFile(name string) string {
	return filepath.Join("testdata", name+".v12.golden")
}

func TestGoldenMessages(t *testing.T) {
	for _, m := range goldenMessages() {
		want, err := os.ReadFile(goldenFile(m.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMessage(nil, m.v, m.p); !bytes.Equal(got, want) {
			t.Errorf("%s: message bytes moved (%d bytes, golden %d) — a ProtocolVersion 12 wire break", m.name, len(got), len(want))
		}
	}
}

// TestGoldenPushFrame pins the largest message, a pushed frame, by length and
// SHA-256.
func TestGoldenPushFrame(t *testing.T) {
	want, err := os.ReadFile(goldenFile("push.sum"))
	if err != nil {
		t.Fatal(err)
	}
	msg := appendMessage(nil, vPush, slam.AppendFrame(nil, goldenFrame(16, 12)))
	if got := fmt.Sprintf("%d %x\n", len(msg), sha256.Sum256(msg)); got != string(want) {
		t.Errorf("push message moved: got %swant %s", got, want)
	}
}
