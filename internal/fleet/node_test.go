package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

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

// TestHostileRestoreIsRefusedNotFatal: a RESTORE whose snapshot is framed and
// checksummed like a real one but carries Adam second moments one value short
// of the first must be answered with an error reply. The node used to restore
// it, and the stream's next PUSH then indexed out of range on the session
// goroutine, taking the node and its other tenant down; that tenant has to
// finish with its sequential digest.
func TestHostileRestoreIsRefusedNotFatal(t *testing.T) {
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

	sys := slam.New(cfg, seq.Intr)
	for _, f := range seq.Frames[:2] {
		if err := sys.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	snap := sys.AppendSnapshot(nil)
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

	_, err = restoreOn(nodes[0].Addr(), "hostile", append(body, sum[:]...), 2)
	var re *remoteError
	if !errors.As(err, &re) {
		t.Fatalf("hostile restore answered with %v, want an error reply", err)
	}
	if got := nodes[0].Stats().OpenSessions; got != 1 {
		t.Errorf("%d sessions open on the node after the refused restore, want the tenant's", got)
	}

	for _, f := range seq.Frames[2:] {
		if err := tenant.Push(f); err != nil {
			t.Fatal(err)
		}
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
// inside the session goroutine and took the node down. Zero means "never", as
// for PruneEvery: the stream runs, the node still answers PING, and a second
// stream finishes with its sequential digest.
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
