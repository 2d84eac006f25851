package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"ags/internal/binfmt"
	"ags/internal/camera"
	"ags/internal/slam"
)

// TestHostilePushIsRefusedNotFatal: a checksummed push whose declared frame
// size overflows int must come back as a protocol error on its own
// connection. It used to panic inside the node's connection handler and take
// every other tenant down with it, so a second stream on the same node has to
// finish with its sequential digest.
func TestHostilePushIsRefusedNotFatal(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 4)
	want := sequentialDigest(t, cfg, seq)
	r, _ := startFleet(t, []NodeConfig{{Name: "a"}})

	tenant, err := r.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames[:2] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}

	hostile, err := r.Open("hostile", cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	b := slam.AppendFrame(nil, seq.Frames[0])
	const sizeOff = 8 + 7*8 // index, then the ground-truth pose
	binary.LittleEndian.PutUint64(b[sizeOff:], 3037000500)
	binary.LittleEndian.PutUint64(b[sizeOff+8:], 3037000500)
	_, _, err = hostile.w.roundTrip(vPush, b)
	var re *remoteError
	if !errors.As(err, &re) || re.code != codeProto {
		t.Fatalf("overflowing push answered with %v, want a codeProto error reply", err)
	}
	// The refusal costs the hostile stream nothing but that frame.
	if err := hostile.Push(seq.Frames[0]); err != nil {
		t.Errorf("push after the refused frame: %v", err)
	}
	if _, err := hostile.Close(); err != nil {
		t.Errorf("hostile stream close: %v", err)
	}

	for _, f := range seq.Frames[2:] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := tenant.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != want {
		t.Error("the other tenant's digest diverges from its sequential run")
	}
}

// TestRetiredJobVerbIsRefusedNotFatal: verb byte 14 was job under protocol
// version 2, and a node with a bench worker plugged in (every ags-fleet serve
// had one) handed the job's scene recipe to scene.Generate unchecked. A
// 3037000500 x 3037000500 image panicked in makeslice on the connection
// handler and took every tenant of the node with it. The verb is gone: the
// same checksummed frame is now an unknown verb, which ends the sender's
// connection and nothing else, so the node still answers a health probe and a
// second stream on it finishes with its sequential digest.
func TestRetiredJobVerbIsRefusedNotFatal(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 4)
	want := sequentialDigest(t, cfg, seq)
	r, nodes := startFleet(t, []NodeConfig{{Name: "a"}})

	tenant, err := r.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames[:2] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}

	// The job payload as the retired codec laid it out: ID, sequence name,
	// the scene recipe (width, height, frames, seed, vertical FoV), then the
	// pipeline configuration as a byte string.
	var job binfmt.Enc
	job.Str("Desk/baseline/")
	job.Str("Desk")
	job.I64(3037000500)
	job.I64(3037000500)
	job.I64(1)
	job.I64(1)
	job.F64(0)
	job.Bytes(slam.AppendConfig(nil, &cfg))
	c, err := net.Dial("tcp", nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(appendMessage(nil, verb(14), job.Buf)); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Errorf("retired verb: read %d bytes, err %v; want the connection closed unanswered", n, err)
	}
	for _, h := range r.CheckHealth() {
		if !h.Reachable {
			t.Errorf("node %s does not answer a ping after the retired verb", h.Name)
		}
	}

	for _, f := range seq.Frames[2:] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := tenant.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != want {
		t.Error("the other tenant's digest diverges from its sequential run")
	}
}

// TestHostileRestoreIsRefusedNotFatal: a RESTORE whose snapshot is framed and
// checksummed like a real one but carries Adam second moments one value short
// of the first, or a key frame whose depth plane is shorter than the image,
// must be answered with an error reply. The node used to restore either, and
// the stream's next PUSH then indexed out of range on the session goroutine
// (in optim.(*Adam).Step; in frame.(*DepthMap).Downsample under the tracker's
// pyramid), taking the node and its other tenant down; that tenant keeps
// streaming between the attempts and has to finish with its sequential digest.
func TestHostileRestoreIsRefusedNotFatal(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 4)
	want := sequentialDigest(t, cfg, seq)
	r, nodes := startFleet(t, []NodeConfig{{Name: "a"}})

	tenant, err := r.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tenant.Push(seq.Frames[0]); err != nil {
		t.Fatal(err)
	}

	sys := slam.New(cfg, seq.Intr)
	for _, f := range seq.Frames[:2] {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	snap := sys.AppendSnapshot(nil, nil)
	sys.Close()
	// The snapshot ends with the "scale" optimizer group: name, step, first
	// moments, second moments, then the SHA-256. Drop the last second moment
	// and say so in the vector's length (slam's TestRestoreRejectsDamage
	// crafts the same bytes).
	body := snap[:len(snap)-sha256.Size]
	at := bytes.LastIndex(body, []byte("scale")) + len("scale") + 8
	n := int(binary.LittleEndian.Uint64(body[at:]))
	at += 8 + 8*n
	if at+8+8*n != len(body) {
		t.Fatalf("the snapshot does not end with two %d-value moment vectors", n)
	}
	body = body[:len(body)-8]
	binary.LittleEndian.PutUint64(body[at:], uint64(n-1))
	sum := sha256.Sum256(body)

	shortMoments := append(body, sum[:]...)

	// The frame table follows the fixed-size fields: a count, then position,
	// body length and body per entry, the key frame (the windowed bootstrap
	// frame) first. Cut its depth plane to ten values and say so everywhere.
	table := 8 + 4 + len(slam.AppendConfig(nil, &cfg)) + len(slam.AppendIntrinsics(nil, &seq.Intr)) + 8 + 3*7*8
	bodyAt := table + 8 + 8 + 8
	size := int(binary.LittleEndian.Uint64(snap[bodyAt-8:]))
	key, err := slam.DecodeFrame(snap[bodyAt : bodyAt+size])
	if err != nil {
		t.Fatalf("the first table entry's body does not decode: %v", err)
	}
	key.Depth.D = key.Depth.D[:10]
	cut := slam.AppendFrame(nil, key)
	shortDepth := append(slices.Clone(snap[:bodyAt]), cut...)
	binary.LittleEndian.PutUint64(shortDepth[bodyAt-8:], uint64(len(cut)))
	shortDepth = append(shortDepth, snap[bodyAt+size:len(snap)-sha256.Size]...)
	sum = sha256.Sum256(shortDepth)
	shortDepth = append(shortDepth, sum[:]...)

	for i, hostile := range [][]byte{shortMoments, shortDepth} {
		w, err := restoreOn(nodes[0].Addr(), "hostile", hostile, nil, 2)
		var re *remoteError
		if !errors.As(err, &re) {
			if err == nil {
				// Restored: the next push is what used to kill the node.
				w.roundTrip(vPush, slam.AppendFrame(nil, seq.Frames[2]))
				w.Close()
			}
			t.Fatalf("hostile restore %d answered with %v, want an error reply", i, err)
		}
		if got := nodes[0].Stats().OpenSessions; got != 1 {
			t.Errorf("%d sessions open on the node after refused restore %d, want the tenant's", got, i)
		}
		if err := tenant.Push(seq.Frames[1+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tenant.Push(seq.Frames[3]); err != nil {
		t.Fatal(err)
	}

	got, err := tenant.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want {
		t.Error("the other tenant's digest diverges from its sequential run")
	}
}

// TestKeyframeEveryZeroOpenIsNotFatal: an open whose config carries
// KeyframeEvery 0 with both AGS switches off passes DecodeConfig. The baseline
// mapping path used to take frameCount modulo it, so the second push panicked
// inside the session goroutine and took the node down. Zero means "never":
// the stream runs, the node still answers PING, and a second stream finishes
// with its sequential digest.
func TestKeyframeEveryZeroOpenIsNotFatal(t *testing.T) {
	hostileCfg := fastCfg()
	hostileCfg.EnableMAT, hostileCfg.EnableGCM = false, false
	hostileCfg.KeyframeEvery = 0
	hostileOpenIsNotFatal(t, hostileCfg)
}

// Mapper.KeyframeWindow -1 passes DecodeConfig too. AddKeyframe used to trim
// its window with keyframes[len-(-1):], so the first push panicked (slice
// bounds out of range) inside the session goroutine and took the node and its
// other tenants down. A window below zero keeps no key frames, like zero.
func TestNegativeKeyframeWindowOpenIsNotFatal(t *testing.T) {
	hostileCfg := fastCfg()
	hostileCfg.Mapper.KeyframeWindow = -1
	hostileOpenIsNotFatal(t, hostileCfg)
}

// hostileOpenIsNotFatal runs a two-frame stream opened with hostileCfg through
// a one-node fleet, then checks the node still answers PING and serves a second
// tenant to its sequential digest.
func hostileOpenIsNotFatal(t *testing.T, hostileCfg slam.Config) {
	t.Helper()
	seq := testSeq(t, "Desk", 3)
	r, _ := startFleet(t, []NodeConfig{{Name: "a"}})

	hostile, err := r.Open("hostile", hostileCfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range seq.Frames[:2] {
		if err := hostile.Push(f); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if sum, err := hostile.Close(); err != nil || sum.Frames != 2 {
		t.Fatalf("hostile stream close: %d frames, %v", sum.Frames, err)
	}

	for _, h := range r.CheckHealth() {
		if !h.Reachable || h.Evicted {
			t.Errorf("node %q after the hostile stream: %+v", h.Name, h)
		}
	}
	cfg := fastCfg()
	want := sequentialDigest(t, cfg, seq)
	tenant, err := r.Open(seq.Name, cfg, seq.Intr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := tenant.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != want {
		t.Error("the second stream's digest diverges from its sequential run")
	}
}

// TestHostileOpenIntrinsicsAreRefused: an OPEN whose camera has no pixels or
// no focal length is answered with an error reply by name, opens no session
// and takes no admission slot. (A render context used to be sized from it on
// the first push.)
func TestHostileOpenIntrinsicsAreRefused(t *testing.T) {
	cfg := fastCfg()
	seq := testSeq(t, "Desk", 1)
	_, nodes := startFleet(t, []NodeConfig{{Name: "a", MaxSessions: 1}})
	for _, tc := range []struct {
		name string
		edit func(*camera.Intrinsics)
		want string
	}{
		{"zero width", func(in *camera.Intrinsics) { in.W = 0 }, "image size"},
		{"negative height", func(in *camera.Intrinsics) { in.H = -36 }, "image size"},
		{"zero focal length", func(in *camera.Intrinsics) { in.Fx = 0 }, "focal length"},
		{"negative focal length", func(in *camera.Intrinsics) { in.Fy = -50 }, "focal length"},
		{"NaN focal length", func(in *camera.Intrinsics) { in.Fx = math.NaN() }, "focal length"},
	} {
		intr := seq.Intr
		tc.edit(&intr)
		_, err := openOn(nodes[0].Addr(), encodeOpen(nil, tc.name, slam.AppendConfig(nil, &cfg), slam.AppendIntrinsics(nil, &intr)))
		var re *remoteError
		if !errors.As(err, &re) || !strings.Contains(re.msg, tc.want) {
			t.Errorf("%s: open answered with %v, want an error reply naming the %s", tc.name, err, tc.want)
		}
	}
	if st := nodes[0].Stats(); st.OpenSessions != 0 {
		t.Errorf("%d sessions admitted by the refused opens", st.OpenSessions)
	}
	w, err := openOn(nodes[0].Addr(), encodeOpen(nil, "good", slam.AppendConfig(nil, &cfg), slam.AppendIntrinsics(nil, &seq.Intr)))
	if err != nil {
		t.Fatalf("the one admission slot is gone: %v", err)
	}
	w.Close()
}

// TestHostileRestoreFrameLists: a RESTORE supplies exactly the frames its
// snapshot names without a body, or it is refused by name with nothing
// dereferenced, no session opened and the node's tenant unharmed. The
// snapshot and the frames are a live stream's checkpoint and held set. A
// SNAPSHOT request that claims frames the session does not retain is no error:
// the claim is ignored and every body comes back.
func TestHostileRestoreFrameLists(t *testing.T) {
	const at = 4
	cfg := fastCfg()
	seq := testSeq(t, "Desk", at+2)
	want := sequentialDigest(t, cfg, seq)
	r, nodes := startFleet(t, []NodeConfig{{Name: "a"}})
	tenant, err := r.OpenWith(seq.Name, cfg, seq.Intr, StreamOptions{CheckpointEvery: at})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq.Frames[:at] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, held := tenant.checkpoint, tenant.held
	if tenant.checkpointFrames != at || len(held) < 2 {
		t.Fatalf("checkpoint at frame %d with %d held frames, want frame %d and the previous and key frames", tenant.checkpointFrames, len(held), at)
	}
	other := slam.AppendFrame(nil, seq.Frames[1])
	with := func(list []heldFrame, extra ...heldFrame) []heldFrame {
		return append(slices.Clone(list), extra...)
	}
	for _, tc := range []struct {
		name string
		list []heldFrame
		want string
	}{
		{"a referenced frame not supplied", held[1:], "was not supplied"},
		{"nothing supplied", nil, "was not supplied"},
		{"a frame nobody references", with(held, heldFrame{pos: 1, b: other}), "supplied for a table of"},
		{"an unreferenced frame in a referenced one's place", with(held[1:], heldFrame{pos: 1, b: other}), "was not supplied"},
		{"a position supplied twice", with(held[:1], held[:len(held)-1]...), "supplied twice"},
		{"a position at the frame count", with(held[1:], heldFrame{pos: at, b: held[0].b}), "was not supplied"},
		{"a position past every frame", with(held[1:], heldFrame{pos: 1 << 40, b: held[0].b}), "was not supplied"},
		{"a frame that is not one", with(held[1:], heldFrame{pos: held[0].pos, b: held[0].b[:100]}), "supplied frame at position"},
	} {
		_, err := restoreOn(nodes[0].Addr(), "hostile", ckpt, tc.list, at)
		var re *remoteError
		if !errors.As(err, &re) || !strings.Contains(re.msg, tc.want) {
			t.Errorf("%s: restore answered with %v, want an error reply saying %q", tc.name, err, tc.want)
		}
		if got := nodes[0].Stats().OpenSessions; got != 1 {
			t.Fatalf("%s: %d sessions open on the node, want the tenant's", tc.name, got)
		}
	}
	w, err := restoreOn(nodes[0].Addr(), "twin", ckpt, held, at)
	if err != nil {
		t.Fatalf("the checkpoint with its own held frames was refused: %v", err)
	}
	w.Close()

	rv, snap, err := tenant.w.roundTrip(vSnapshot, encodePositions(nil, []int{-7, at, 1 << 40, 1}))
	if err != nil || rv != vSnapData {
		t.Fatalf("snapshot with a made-up have list: %s, %v", rv, err)
	}
	if missing, err := slam.MissingFrames(nil, snap); err != nil || len(missing) != 0 {
		t.Errorf("positions the session does not retain left %v out (%v)", missing, err)
	}
	if sys, err := slam.Restore(bytes.NewReader(snap)); err != nil {
		t.Errorf("that snapshot does not stand alone: %v", err)
	} else {
		sys.Close()
	}

	for _, f := range seq.Frames[at:] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := tenant.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Digest != want {
		t.Error("the tenant's digest diverges from its sequential run")
	}
}
