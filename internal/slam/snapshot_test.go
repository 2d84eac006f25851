package slam

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ags/internal/binfmt"
	"ags/internal/frame"
	"ags/internal/metrics"
	"ags/internal/scene"
	"ags/internal/vecmath"
)

func runDigest(t *testing.T, cfg Config, name string, frames int) (*Result, [32]byte) {
	t.Helper()
	res, err := Run(cfg, testSeq(t, name, frames))
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Digest()
}

// TestPruneDigestPinned pins the digests of fastAGS runs on Desk and Room.
// Until opacity pruning was deleted it ran them with a prune every second
// frame; the constants were what the same frames digested to when a prune
// left dead slots behind and nothing compacted them, which held that removing
// pruned Gaussians at once changed no output bit; they were re-recorded when
// tracking became sparse (the refiner renders a pixel lattice), which moves
// every refined pose, and again when refinement moved beside the previous
// frame's mapping (a frame refines against the map as it stood before that
// tail, and a key frame joins the window before its own tail), and again
// when the per-frame history became a hash chain (a digest covers the chain,
// not the arrays), and again when the renderer's falloff stopped calling
// math.Exp for an exponential of its own, a few ulp from it, which moves the
// last bits of blends, and again when the training pass began to sum its
// pixels' loss and gradient terms unnormalized and scale the merged sums by
// 1/Pixels once, which moves the rounding of every gradient, and again when
// a frame's record began to carry each decision once (the chain hashes
// shorter records; every pose, map and trace scalar reads as before), and
// again when pruning was deleted, which took the prune settings off these
// runs and the pruned count off every record. It holds in both kinds of
// venue: Run, which retains each frame's trace and tile lists as recorded,
// and an Open session, which retains no per-frame history. The run's floats
// depend on whether the compiler fuses multiply-adds, so the digests hold for
// amd64 only; the other checks hold everywhere.
func TestPruneDigestPinned(t *testing.T) {
	cfg := fastAGS(tw, th)
	srv := NewServer(ServerConfig{})
	for _, sc := range []struct {
		name, digest string
	}{
		{"Desk", "919e9f87977ef85e32e24d9f885cd22d630bd6d9705fd452bdd797ae15fc55dc"},
		{"Room", "adfebe678bc7222ca8a40975309f47999ef676372e8b1ec15d4942bfcd691aa6"},
	} {
		seq := testSeq(t, sc.name, 11)
		for _, venue := range []struct {
			name   string
			run    func() *Result
			detail bool
		}{
			{"Run", func() *Result {
				res, err := srv.Run(cfg, seq)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}, true},
			{"Open", func() *Result { return sessionRun(t, srv, cfg, seq) }, false},
		} {
			res := venue.run()
			if dig := res.Digest(); runtime.GOARCH == "amd64" && fmt.Sprintf("%x", dig) != sc.digest {
				t.Errorf("%s/%s: digest %x, pinned %s", sc.name, venue.name, dig, sc.digest)
			}
			if !venue.detail {
				if len(res.Trace.Frames) != 0 {
					t.Errorf("%s/%s: a serving session kept %d trace frames", sc.name, venue.name, len(res.Trace.Frames))
				}
				continue
			}
			if last := res.Trace.Frames[len(res.Trace.Frames)-1]; res.Cloud.Len() != last.NumGaussians {
				t.Errorf("%s/%s: map holds %d Gaussians, the last frame recorded %d", sc.name, venue.name, res.Cloud.Len(), last.NumGaussians)
			}
			if tasks, detailed := traceDetail(t, res.Trace.Frames); detailed != tasks {
				t.Errorf("%s/%s: %d of %d tasks carry detail", sc.name, venue.name, detailed, tasks)
			}
		}
	}
}

// TestSnapshotRoundTripSystem: snapshot a system mid-stream, restore it, push
// the remaining frames, and the Result digest must equal the uninterrupted
// run's — at the first frame, mid-stream, and at the last frame, on two
// scenes.
func TestSnapshotRoundTripSystem(t *testing.T) {
	const frames = 10
	cfg := fastAGS(tw, th)
	for _, scene := range []string{"Desk", "Xyz"} {
		seq := testSeq(t, scene, frames)

		ref := New(cfg, seq.Intr)
		for _, f := range seq.Frames {
			if err := ref.ProcessFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Finish(seq.Name).Digest()
		ref.Close()

		for _, k := range []int{1, frames / 2, frames - 1} {
			sys := New(cfg, seq.Intr)
			for _, f := range seq.Frames[:k] {
				if err := sys.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := sys.Snapshot(&buf); err != nil {
				t.Fatalf("%s split %d: snapshot: %v", scene, k, err)
			}
			// The counting pass sized the buffer: it was made once, for the
			// snapshot and the one checksum of spare capacity, never regrown
			// (which would leave more), and it is what was written.
			enc := sys.AppendSnapshot(nil, nil)
			if cap(enc) != len(enc)+sha256.Size || !bytes.Equal(enc, buf.Bytes()) {
				t.Errorf("%s split %d: snapshot buffer len %d cap %d, wrote %d bytes",
					scene, k, len(enc), cap(enc), buf.Len())
			}
			// Behind a prefix, in a buffer with room, it encodes in place.
			dst := append(make([]byte, 0, 3+cap(enc)), "pre"...)
			if out := sys.AppendSnapshot(dst, nil); &out[0] != &dst[0] || string(out[:3]) != "pre" || !bytes.Equal(out[3:], enc) {
				t.Errorf("%s split %d: AppendSnapshot moved the buffer or wrote other bytes behind the prefix", scene, k)
			}
			sys.Close()

			restored, err := Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s split %d: restore: %v", scene, k, err)
			}
			if restored.FrameCount() != k {
				t.Fatalf("%s split %d: restored FrameCount = %d", scene, k, restored.FrameCount())
			}
			for _, f := range seq.Frames[k:] {
				if err := restored.ProcessFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			got := restored.Finish(seq.Name).Digest()
			restored.Close()
			if got != want {
				t.Errorf("%s split %d: restored digest %x != uninterrupted %x", scene, k, got, want)
			}
		}
	}
}

// TestSnapshotPendingTailRestores: a snapshot is the system with its last
// frame's mapping tail pending, so one taken after any frame k (k = 1 holds
// the bootstrap tail) restores into a system with that tail pending, in the
// offline and the serving venue, and pushing the rest of the stream reaches
// the uninterrupted digest. A version 11 snapshot, whose record held the
// frame's decisions twice, is refused by its version word.
func TestSnapshotPendingTailRestores(t *testing.T) {
	const frames = 5
	// Half the tests' usual frame side: the test runs twenty restores, five
	// times under the race detector in CI.
	seq := scene.MustGenerate("Desk", scene.Config{Width: tw / 2, Height: th / 2, Frames: frames, Seed: 1})
	srv := NewServer(ServerConfig{})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", fastCfg(tw, th)},
		{"ags", fastAGS(tw, th)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := directRun(t, tc.cfg, seq).Digest()
			for k := 1; k < frames; k++ {
				sys := New(tc.cfg, seq.Intr)
				sess, err := srv.Open(seq.Name, tc.cfg, seq.Intr)
				if err != nil {
					t.Fatal(err)
				}
				var snaps [2][]byte
				for _, f := range seq.Frames[:k] {
					if err := sys.ProcessFrame(f); err != nil {
						t.Fatal(err)
					}
					if err := sess.Push(f); err != nil {
						t.Fatal(err)
					}
				}
				if sys.tail == nil || sys.tail.f != seq.Frames[k-1] {
					t.Fatalf("k=%d: no pending tail of frame %d to snapshot", k, k-1)
				}
				snaps[0] = sys.AppendSnapshot(nil, nil)
				if snaps[1], err = sess.AppendSnapshot(nil, nil); err != nil {
					t.Fatal(err)
				}
				sys.Close()
				if _, err := sess.Close(); err != nil {
					t.Fatal(err)
				}

				restored, err := Restore(bytes.NewReader(snaps[0]))
				if err != nil {
					t.Fatalf("k=%d: restore: %v", k, err)
				}
				if tail := restored.tail; tail == nil || tail.f != restored.prevFrame || tail.f.Index != seq.Frames[k-1].Index || !tail.restored {
					t.Fatalf("k=%d: the restored system has no pending tail of frame %d", k, k-1)
				}
				for _, f := range seq.Frames[k:] {
					if err := restored.ProcessFrame(f); err != nil {
						t.Fatal(err)
					}
				}
				if got := restored.Finish(seq.Name).Digest(); got != want {
					t.Errorf("k=%d: Restore: digest %x, uninterrupted %x", k, got, want)
				}
				restored.Close()

				rs, n, err := srv.RestoreSession(seq.Name, snaps[1], nil)
				if err != nil || n != k {
					t.Fatalf("k=%d: RestoreSession: frame %d, %v", k, n, err)
				}
				if got := pushAll(t, rs, seq.Frames[k:]).Digest(); got != want {
					t.Errorf("k=%d: RestoreSession: digest %x, uninterrupted %x", k, got, want)
				}
			}
		})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	v13 := snapshotBytes(t)
	binary.LittleEndian.PutUint32(v13[len(snapshotMagic):], 13)
	if _, err := Restore(bytes.NewReader(v13)); err == nil || !strings.Contains(err.Error(), "snapshot version 13, this build reads 14") {
		t.Errorf("a version 13 snapshot: %v, want it refused by its version", err)
	}
}

// TestSessionSnapshotRestore drives the serving path: a session snapshotted
// mid-stream keeps running unperturbed, and a second session restored from
// the snapshot and fed the remainder closes with the identical digest.
func TestSessionSnapshotRestore(t *testing.T) {
	const frames = 10
	cfg := fastAGS(tw, th)
	seq := testSeq(t, "Desk", frames)

	_, want := runDigest(t, cfg, "Desk", frames)

	sv := NewServer(ServerConfig{})
	sess, err := sv.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	const k = frames / 2
	for _, f := range seq.Frames[:k] {
		if err := sess.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.AppendSnapshot(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames[k:] {
		if err := sess.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Digest(); got != want {
		t.Errorf("snapshotted session digest %x != uninterrupted %x", got, want)
	}

	restored, n, err := sv.RestoreSession(seq.Name, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != k {
		t.Fatalf("RestoreSession processed-frame count = %d, want %d (the snapshot covers every pushed frame)", n, k)
	}
	for _, f := range seq.Frames[n:] {
		if err := restored.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Digest(); got != want {
		t.Errorf("restored session digest %x != uninterrupted %x", got, want)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSnapshotAfterClose: the producer contract rejects snapshots of a
// closed session instead of deadlocking.
func TestSessionSnapshotAfterClose(t *testing.T) {
	seq := testSeq(t, "Desk", 2)
	sess, err := DefaultServer().Open(seq.Name, fastCfg(tw, th), seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(seq.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AppendSnapshot(nil, nil); err == nil {
		t.Fatal("snapshot after Close succeeded")
	}
}

// TestAppendSnapshotAllocBudget: a snapshot encoded into a buffer that has
// room exists once, in that buffer — the encode allocates next to nothing —
// and a buffer that is too small is re-made once, at twice its capacity. The
// system is an offline one: it keeps packed trace detail, which the snapshot
// leaves out.
func TestAppendSnapshotAllocBudget(t *testing.T) {
	seq := testSeq(t, "Desk", 3)
	sys := New(fastCfg(tw, th), seq.Intr)
	if sys.mapper.ScalarsOnly {
		t.Fatal("slam.New built a serving system, without trace detail")
	}
	defer sys.Close()
	for _, f := range seq.Frames {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	buf := sys.AppendSnapshot(nil, nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	buf = sys.AppendSnapshot(buf[:0], nil)
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got > uint64(len(buf)/8) {
		t.Errorf("encoding a %d-byte snapshot into a buffer with room allocated %d bytes", len(buf), got)
	}
	small := make([]byte, 0, len(buf)*3/4)
	if grown := sys.AppendSnapshot(small, nil); cap(grown) != 2*cap(small) || !bytes.Equal(grown, buf) {
		t.Errorf("a %d-byte buffer was re-made at %d bytes for a %d-byte snapshot, want doubled", cap(small), cap(grown), len(buf))
	}
}

// snapshotBytes returns a small valid snapshot to corrupt.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	seq := testSeq(t, "Desk", 3)
	sys := New(fastCfg(tw, th), seq.Intr)
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
	return buf.Bytes()
}

func TestRestoreRejectsDamage(t *testing.T) {
	data := snapshotBytes(t)
	if _, err := Restore(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantSub string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"truncated header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-17] }, "checksum"},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}, "checksum"},
		{"flipped checksum byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x01
			return c
		}, "checksum"},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, "magic"},
		{"future version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8] = 0xFF // version word follows the 8-byte magic
			return c
		}, "version"},
		{"short second moments", func(b []byte) []byte { return shortSecondMoments(t, b) }, "second moments"},
		{"skip set one flag short", reskip(t, func(s []bool) []bool { return s[:len(s)-1] }), "skip set does not match"},
		{"pending tail before the first frame", func([]byte) []byte {
			return flagPending(t, New(fastCfg(tw, th), testSeq(t, "Desk", 1).Intr).AppendSnapshot(nil, nil))
		}, "pending mapping tail with 0 frames processed"},
		{"skip set one flag long", reskip(t, func(s []bool) []bool { return append(s, true) }), "skip set does not match"},
		{"negative frame count", func([]byte) []byte {
			head, table, tail := splitSnapshot(t, New(fastCfg(tw, th), testSeq(t, "Desk", 1).Intr).AppendSnapshot(nil, nil))
			binary.LittleEndian.PutUint64(head[len(head)-8-3*7*8:], ^uint64(0)) // the count, ahead of three poses
			return joinSnapshot(head, table, tail)
		}, "-1 frames processed"},
		// The frame table (since version 2): position, body length, body per entry.
		{"table position at the frame count", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[0].pos = 3
			return tb
		}), "not one of the 3 frames"},
		{"negative table position", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[0].pos = -1
			return tb
		}), "not one of the 3 frames"},
		{"table position listed twice", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[0].pos = tb[1].pos
			return tb
		}), "listed twice"},
		{"previous frame at another position", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[0].pos, tb[1].pos = tb[1].pos, tb[0].pos
			return tb
		}), "previous frame is at position"},
		{"body left out, nothing supplied", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[1].body = nil
			return tb
		}), "was not supplied"},
		{"previous and key frame dropped", tableEdit(t, func(tb []tableEntry) []tableEntry {
			return nil
		}), "frame reference"},
		{"trailing byte in a body", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[0].body = append(slices.Clone(tb[0].body), 0)
			return tb
		}), "trailing"},
		{"depth plane shorter than the image", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[0].body = reframeBody(t, tb[0].body, func(f *frame.Frame) { f.Depth.D = f.Depth.D[:10] })
			return tb
		}), "depth plane"},
		{"frame of another size", tableEdit(t, func(tb []tableEntry) []tableEntry {
			tb[0].body = AppendFrame(nil, scene.MustGenerate("Desk", scene.Config{Width: tw / 2, Height: th / 2, Frames: 1, Seed: 1}).Frames[0])
			return tb
		}), "does not match camera"},
	}
	for _, tc := range cases {
		_, err := Restore(bytes.NewReader(tc.mangle(data)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// tableEdit is a damage row that rewrites the snapshot's frame table (two
// entries here: the windowed bootstrap frame, then the previous frame).
func tableEdit(t *testing.T, edit func([]tableEntry) []tableEntry) func([]byte) []byte {
	return func(b []byte) []byte { return retable(t, b, edit) }
}

// reframeBody decodes a frame body, applies edit and encodes it again.
func reframeBody(t *testing.T, body []byte, edit func(*frame.Frame)) []byte {
	t.Helper()
	f, err := DecodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	edit(f)
	return AppendFrame(nil, f)
}

// shortSecondMoments returns snap with the optimizer's second-moment vector,
// the payload's last, one value short and the checksum redone: bytes any peer
// can produce, framed and summed like a real snapshot.
func shortSecondMoments(t *testing.T, snap []byte) []byte {
	t.Helper()
	body := snap[:len(snap)-sha256.Size]
	// The payload ends with the first and the second moments, n values each
	// behind their length: the longest such pair is the one.
	n, at := (len(body)-16)/16, 0
	for ; n > 0; n-- {
		at = len(body) - 8 - 8*n // the second moments' length
		if binary.LittleEndian.Uint64(body[at:]) == uint64(n) && binary.LittleEndian.Uint64(body[at-8-8*n:]) == uint64(n) {
			break
		}
	}
	if n == 0 {
		t.Fatal("the snapshot does not end with two moment vectors")
	}
	out := append([]byte(nil), body[:len(body)-8]...)
	binary.LittleEndian.PutUint64(out[at:], uint64(n-1))
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// historySection reads past the fields between a snapshot's frame table and
// its map, the history (hash chain, ATE moments, pending-tail flag and
// record) last, and returns the decoder at the cloud.
func historySection(t testing.TB, tail []byte) *binfmt.Dec {
	t.Helper()
	d := binfmt.NewDec(tail)
	d.I64() // previous frame
	d.I64() // key frame
	d.Take(sha256.Size)
	decodeMoments(d, &metrics.ATEMoments{})
	if d.Bool() { // the last frame's tail is pending
		decodeRecord(d)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return d
}

// flagPending returns snap with its pending-tail flag set and the checksum
// redone.
func flagPending(t *testing.T, snap []byte) []byte {
	t.Helper()
	head, table, tail := splitSnapshot(t, snap)
	d := historySection(t, tail)
	out := slices.Clone(tail)
	out[len(tail)-d.Remaining()-1] = 1
	return joinSnapshot(head, table, out)
}

// reskip is a damage row that rewrites the snapshot's skip set, the field
// behind the cloud, and redoes the checksum.
func reskip(t *testing.T, edit func([]bool) []bool) func([]byte) []byte {
	return func(b []byte) []byte {
		t.Helper()
		head, table, tail := splitSnapshot(t, b)
		d := historySection(t, tail)
		decodeCloud(d)
		at := len(tail) - d.Remaining()
		skip := d.Bools()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		e := binfmt.Enc{Buf: slices.Clone(tail[:at])}
		e.Bools(edit(skip))
		e.Raw(tail[len(tail)-d.Remaining():])
		return joinSnapshot(head, table, e.Buf)
	}
}

// TestRestoreSessionRefusesShortMoments: a well-framed snapshot whose Adam
// second moments are shorter than the first used to restore, and the session's
// next frame then indexed out of range in optim.(*Adam).Step on the session
// goroutine, taking the process and every other tenant with it. The restore is
// refused instead, and a tenant of the same server closes on its sequential
// digest.
func TestRestoreSessionRefusesShortMoments(t *testing.T) {
	cfg := fastAGS(tw, th)
	seq := testSeq(t, "Desk", 4)
	want := directRun(t, cfg, seq).Digest()

	sys := New(cfg, seq.Intr)
	for _, f := range seq.Frames[:2] {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	snap := sys.AppendSnapshot(nil, nil)
	sys.Close()

	sv := NewServer(ServerConfig{})
	tenant, err := sv.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames[:2] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := sv.RestoreSession("hostile", shortSecondMoments(t, snap), nil); err == nil {
		t.Fatal("a snapshot with mismatched optimizer moments was restored")
	} else if !strings.Contains(err.Error(), "second moments") {
		t.Errorf("restore refused with %q, want the second moments named", err)
	}
	for _, f := range seq.Frames[2:] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tenant.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != want {
		t.Error("the other tenant's digest diverges from its sequential run")
	}
	if err := sv.Close(); err != nil { // the refused restore left no session open
		t.Fatal(err)
	}
}

// recordDetail names the fields of a frame's trace that a record leaves
// behind: a task's representative-iteration detail and the image size it was
// recorded at (see encodeStats).
var recordDetail = map[string]bool{
	"RepPerPixelBlend": true, "RepPerPixelAlpha": true, "RepTileLists": true, "Width": true, "Height": true,
}

// recordScalars appends the scalar fields of the struct v, nested structs'
// included and the detail left out, each named by its path from name.
func recordScalars(t *testing.T, dst []reflect.Value, names []string, v reflect.Value, name string) ([]reflect.Value, []string) {
	t.Helper()
	for i := range v.NumField() {
		f, sf := v.Field(i), v.Type().Field(i)
		if recordDetail[sf.Name] {
			continue
		}
		path := name + "." + sf.Name
		switch f.Kind() {
		case reflect.Struct:
			dst, names = recordScalars(t, dst, names, f, path)
		case reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64:
			dst, names = append(dst, f), append(names, path)
		default:
			t.Fatalf("%s: a %s, which the round trip does not know how to set", path, f.Kind())
		}
	}
	return dst, names
}

// TestRecordRoundTrip: a frame's record survives encodeRecord and
// decodeRecord field for field. Every scalar of its trace is set to a value
// no other field holds, and each bool is the one set in a round of its own,
// so a field the encoding drops, swaps or re-types, or one added to
// trace.FrameTrace and not to the encoding, fails here.
func TestRecordRoundTrip(t *testing.T) {
	var in record
	in.pose = vecmath.Pose{R: vecmath.Quat{W: 0.5, X: -0.5, Y: 0.25, Z: -0.25}, T: vecmath.Vec3{X: 1.5, Y: 2.5, Z: 3.5}}
	in.gt = vecmath.Pose{R: vecmath.Quat{W: 0.75, X: 0.125, Y: -0.125, Z: 0.375}, T: vecmath.Vec3{X: -4.5, Y: 5.5, Z: -6.5}}
	fields, names := recordScalars(t, nil, nil, reflect.ValueOf(&in.ft).Elem(), "FrameTrace")
	var bools []int
	for i, f := range fields {
		if f.Kind() == reflect.Bool {
			bools = append(bools, i)
		}
	}
	for round, on := range bools {
		for i, f := range fields {
			v := round*len(fields) + i + 1
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(i == on)
			case reflect.Float64:
				f.SetFloat(float64(v) + 0.25)
			default:
				f.SetInt(int64(v))
			}
		}
		var e binfmt.Enc
		encodeRecord(&e, &in)
		d := binfmt.NewDec(e.Buf)
		out := decodeRecord(d)
		if err := d.Finish("record"); err != nil {
			t.Fatal(err)
		}
		if out.pose != in.pose || out.gt != in.gt {
			t.Errorf("poses %v, %v came back as %v, %v", in.pose, in.gt, out.pose, out.gt)
		}
		got, _ := recordScalars(t, nil, nil, reflect.ValueOf(&out.ft).Elem(), "FrameTrace")
		for i := range fields {
			if w, g := fields[i].Interface(), got[i].Interface(); w != g {
				t.Errorf("round %d: %s is %v, came back as %v", round, names[i], w, g)
			}
		}
	}
}

// TestFirstRecordIsCovisible: the first frame is its own key frame, so its
// record reads covisibility 1 with the previous and with the key frame.
func TestFirstRecordIsCovisible(t *testing.T) {
	res, err := Run(fastAGS(tw, th), testSeq(t, "Desk", 2))
	if err != nil {
		t.Fatal(err)
	}
	if ft := &res.Trace.Frames[0]; ft.Covisibility != 1 || ft.KeyCovisibility != 1 || !ft.IsKeyFrame {
		t.Errorf("frame 0: covisibility %v, key covisibility %v, key frame %v; want 1, 1, true", ft.Covisibility, ft.KeyCovisibility, ft.IsKeyFrame)
	}
}
