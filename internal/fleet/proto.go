// Package fleet is the multi-host serving layer over the slam.Server
// boundary: a hand-rolled, stdlib-only wire protocol plus the two roles that
// speak it. A Node wraps one slam.Server behind a TCP listener — the per-host
// resource owner made network-facing — and a Router places live camera
// streams across N nodes, least-loaded first, with per-node admission control
// and graceful drain (a draining node's sessions are snapshotted over the
// wire and restored onto peers mid-stream).
//
// # Wire format
//
// Every message is one length-prefixed binary frame, mirroring the AGSSNAP
// snapshot discipline — versioned, checksummed, rejected loudly on damage:
//
//	magic "AGSF" (4) | version (1) | verb (1) | payload length (8, LE)
//	| payload | SHA-256 over everything before it (32)
//
// A reader validates in a fixed order with a distinct error per failure
// mode: magic (ErrBadMagic), version (ErrVersionSkew), length prefix
// (ErrOversized), body completeness (ErrTruncated), checksum (ErrChecksum),
// verb (ErrUnknownVerb). Payloads are written through the one cursor the
// snapshot payload uses (internal/binfmt; frames, configurations and
// intrinsics via slam.AppendFrame and friends), so frames, configurations and
// session snapshots cross the network bit-identically — which is what makes the
// fleet falsifiable: a fleet of nodes serving N interleaved streams,
// including streams migrated between hosts mid-flight, must produce
// Result.Digest values bit-identical to N sequential slam.Run calls.
//
// # Conversation shape
//
// The protocol is strict request/response, in order, one outstanding request
// per connection. A connection is either a control connection (stats, drain)
// or becomes bound to one session by open/restore; push replies are sent
// only after the node-side slam.Session.Push returns, that is after the node
// has processed the frame, so the remote producer waits for each frame as a
// local one does and a frame the session rejects fails the push that sent it.
// Determinism needs no special pleading: there is no multi-way select and no
// clock anywhere in the package, and each session's frames flow down a
// single connection in push order.
//
// # Buffer ownership
//
// A connection end (wire) has a write buffer and a read buffer, both kept
// across messages and both grown by at least doubling, and a recovering
// stream has a checkpoint buffer, a replay buffer and a held set. A snapshot
// is hundreds of kilobytes and grows with the map, so it crosses each hop in
// one of these buffers and is never copied between them; a frame crosses the
// wire once, in its push, and the copy the stream made for replay is the only
// one it ever makes:
//
//   - wbuf, the write buffer, belongs to the wire. begin lends it to the
//     caller with a message header in it; the caller appends the payload in
//     place (a node has slam encode the snapshot there, a router builds the
//     restore request around its checkpoint there) and gives it back through
//     finish, grown or moved as it may be. Between finish and the next begin
//     it holds the last message sent. send and roundTrip are begin, append,
//     finish for a payload that already exists.
//   - rbuf, the read buffer, belongs to the wire. The payload recv returns
//     aliases it and is dead at the next recv on that wire. A handler that is
//     done with a request before it answers (every node handler: a session
//     is restored from the bytes in rbuf, a pushed frame is decoded out of
//     them) needs nothing more. A caller that keeps a payload across another
//     recv takes the buffer itself with detach, handing the wire a spare one.
//   - The checkpoint buffer belongs to the Stream: it is the rbuf that
//     received the stream's last snapshot, detached. When the next snapshot
//     arrives the two trade places — the new one is detached, the old
//     checkpoint's buffer goes to the wire as the spare — so the old
//     checkpoint stays intact until the new one has arrived whole and passed
//     its checksum, and a node dying mid-snapshot costs nothing. Migration
//     takes the drain snapshot the same way, because it closes the old session
//     over the same connection before it restores the snapshot elsewhere.
//   - A replay slot holds one pushed frame, encoded, and belongs to the Stream
//     from the push on. It is in exactly one of three places. In replay (up to
//     its length) it is a frame acknowledged since the checkpoint. In the held
//     set it is a frame the checkpoint names without a body: the snapshot
//     request lists the positions the stream has in either place, the node
//     leaves those bodies out, and the slots the reply refers to move from
//     replay to the held set (or stay in it) without a copy. Every other slot
//     is spare: it sits in replay's capacity beyond its length, and the next
//     push is copied over it. So the held set is at most the session's
//     key-frame window plus the previous and the key frame, and a stream whose
//     window has filled allocates nothing per push or per checkpoint. A
//     restore sends the checkpoint and the held frames, each as it was pushed.
package fleet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"ags/internal/binfmt"
	"ags/internal/slam"
)

// ProtocolVersion is the wire format revision this build speaks. Peers with
// a different version are rejected with ErrVersionSkew before any payload is
// examined. Version 2: a snapshot request lists the frame positions the
// requester holds, and a restore request carries those frames behind the
// snapshot (see slam's snapshot format, version 2). Versions 3 to 7: the
// snapshots and configurations the messages carry are slam's encodings of the
// same version, and version 4's RESULT no longer carries the compaction
// totals. Version 5 changes no message of its own: a node's snapshots carry
// no trace detail, which is all slam's version 5 repacked. Versions 6 to 8
// change none either: slam's version 6 shortens the configuration and every
// trace, its version 7 drops the configuration's backbone, and its version 8
// drops the trace detail and image size that a node's snapshots left empty.
// Version 9's RESULT drops the trajectory error, the pruned count and the
// dropped-update count, which no router read; its messages still carry
// slam's version 8 snapshots and configurations. Version 10's OPEN carries
// slam's version 11 configuration, which drops the render worker count.
// Version 11's OPEN carries slam's version 12 configuration, which drops
// Thresh_T and the skip criterion's contributing-pixel bound, and its
// snapshots are slam's version 12, which records each frame decision once.
// Version 12's OPEN carries slam's version 13 configuration, which drops the
// prune settings, and its snapshots are slam's version 13, whose records drop
// the pruned count. Version 13's SNAPSHOT and RESTORE carry slam's version
// 14 snapshots, whose mapper optimizer is one step counter and two moment
// vectors.
const ProtocolVersion = 13

const (
	protoMagic = "AGSF"
	headerSize = 4 + 1 + 1 + 8 // magic, version, verb, payload length
	// MaxPayload bounds a message's declared payload length. A corrupt or
	// hostile length prefix is rejected (ErrOversized) before any allocation
	// is sized from it.
	MaxPayload = 1 << 28
)

// Damage and skew are distinct, testable failure modes (the fleet mirror of
// the snapshot damage contract).
var (
	// ErrBadMagic: the stream does not start with a fleet message.
	ErrBadMagic = errors.New("fleet: not a fleet message (bad magic)")
	// ErrVersionSkew: the peer speaks a different protocol revision.
	ErrVersionSkew = errors.New("fleet: protocol version skew")
	// ErrOversized: the length prefix exceeds MaxPayload.
	ErrOversized = errors.New("fleet: message length exceeds limit")
	// ErrTruncated: the connection ended mid-message.
	ErrTruncated = errors.New("fleet: message truncated")
	// ErrChecksum: the trailing SHA-256 does not match the message bytes.
	ErrChecksum = errors.New("fleet: message checksum mismatch")
	// ErrUnknownVerb: the (checksum-verified) verb byte is not one this
	// build dispatches.
	ErrUnknownVerb = errors.New("fleet: unknown verb")
	// ErrAdmission: the node rejected a new stream — its session count or
	// resident-byte budget is exhausted. Routers fall through to the next
	// placement candidate.
	ErrAdmission = errors.New("fleet: admission rejected")
	// ErrDraining: the node is draining and admits no new streams.
	ErrDraining = errors.New("fleet: node draining")
)

// verb identifies a message's meaning. Requests: open, push, close,
// snapshot, restore, drain, stats, ping. Responses: ok, result, snapData,
// statsData, errReply. New verbs are appended before verbEnd (never inserted
// mid-list: the byte values are the wire contract). Bytes 14 and 15 were the
// verbs job and job-result under protocol version 2; no verb has used them
// since.
type verb byte

const (
	vOpen verb = 1 + iota
	vPush
	vClose
	vSnapshot
	vRestore
	vDrain
	vStats
	vPing
	vOK
	vResult
	vSnapData
	vStatsData
	vErrReply

	verbEnd // one past the last valid verb
)

// verbNames is the central verb registry: every valid verb has an entry, and
// proto_test iterates registeredVerbs (1..verbEnd-1) so a newly appended verb
// automatically gets per-damage-mode sentinel coverage, fuzz seeds, and a
// name-completeness check.
var verbNames = [...]string{
	vOpen: "open", vPush: "push", vClose: "close", vSnapshot: "snapshot",
	vRestore: "restore", vDrain: "drain", vStats: "stats", vPing: "ping",
	vOK: "ok", vResult: "result", vSnapData: "snap-data",
	vStatsData: "stats-data", vErrReply: "err",
}

func (v verb) String() string {
	if int(v) < len(verbNames) && verbNames[v] != "" {
		return verbNames[v]
	}
	return fmt.Sprintf("verb(0x%02x)", byte(v))
}

// beginMessage appends a message header for verb v to buf with the payload
// length left zero; the caller appends the payload behind it and closes the
// message with endMessage.
//
//ags:hotpath
func beginMessage(buf []byte, v verb) []byte {
	buf = append(buf, protoMagic...)
	buf = append(buf, ProtocolVersion, byte(v))
	return binary.LittleEndian.AppendUint64(buf, 0)
}

// endMessage closes the message that beginMessage started at buf[start:]:
// it patches the payload length into the header and appends the SHA-256 over
// header and payload.
//
//ags:hotpath
func endMessage(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint64(buf[start+headerSize-8:], uint64(len(buf)-start-headerSize))
	sum := sha256.Sum256(buf[start:])
	return append(buf, sum[:]...)
}

// wire is one endpoint of a fleet connection: buffered reads, reusable
// read/write scratch. It is owned by exactly one goroutine at a time (the
// conn handler on the node, the stream or control owner on the router); it
// provides no internal locking. Who owns rbuf and wbuf when is in the package
// doc (Buffer ownership).
type wire struct {
	c    net.Conn
	r    *bufio.Reader
	rbuf []byte // the last received payload and its checksum
	wbuf []byte // the last sent message
}

func newWire(c net.Conn) *wire {
	return &wire{c: c, r: bufio.NewReader(c)}
}

func (w *wire) Close() error { return w.c.Close() }

// begin starts a message in the wire's write buffer and returns it for the
// caller to append the payload to, in place, before handing the result to
// finish (or exchange). A payload that outgrows the buffer moves it; finish
// keeps whatever it is given, so the growth is kept too.
//
//ags:hotpath
func (w *wire) begin(v verb) []byte { return beginMessage(w.wbuf[:0], v) }

// finish closes the message begin started and writes it in one Write.
//
//ags:hotpath
func (w *wire) finish(msg []byte) error {
	w.wbuf = endMessage(msg, 0)
	if _, err := w.c.Write(w.wbuf); err != nil {
		return fmt.Errorf("fleet: send %s: %w", verb(w.wbuf[5]), err)
	}
	return nil
}

// send frames and writes one message with a ready-made payload.
//
//ags:hotpath
func (w *wire) send(v verb, payload []byte) error {
	return w.finish(append(w.begin(v), payload...))
}

// recv reads and validates one message. The returned payload aliases the
// wire's read buffer and is valid only until the next recv, unless the caller
// takes the buffer over with detach. The buffer grows by doubling, so the
// steady-state per-frame receive path is allocation-free and a payload that
// keeps getting larger (a checkpoint) re-makes it O(log) times. A clean close
// at a message boundary returns io.EOF; every damage mode returns its
// distinct error (see the package doc for the validation order).
//
//ags:hotpath
func (w *wire) recv() (verb, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(w.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: connection ended inside the header", ErrTruncated)
		}
		return 0, nil, err
	}
	if string(hdr[:4]) != protoMagic {
		return 0, nil, ErrBadMagic
	}
	if hdr[4] != ProtocolVersion {
		return 0, nil, fmt.Errorf("%w: peer speaks v%d, this build v%d", ErrVersionSkew, hdr[4], ProtocolVersion)
	}
	v := verb(hdr[5])
	n := binary.LittleEndian.Uint64(hdr[6:14])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: length prefix %d (max %d)", ErrOversized, n, MaxPayload)
	}
	need := int(n) + sha256.Size
	w.rbuf = binfmt.Grow(w.rbuf[:0], need)[:need]
	if _, err := io.ReadFull(w.r, w.rbuf); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: connection ended inside the body (%d byte payload declared)", ErrTruncated, n)
		}
		return 0, nil, err
	}
	h := sha256.New()
	h.Write(hdr[:])
	payload := w.rbuf[:n]
	h.Write(payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if !bytes.Equal(sum[:], w.rbuf[n:]) {
		return 0, nil, ErrChecksum
	}
	if v == 0 || v >= verbEnd {
		return 0, nil, fmt.Errorf("%w: 0x%02x", ErrUnknownVerb, byte(v))
	}
	return v, payload, nil
}

// detach hands the caller the buffer behind the payload the last recv
// returned: that payload stops aliasing the wire and stays valid for as long
// as the caller keeps it. spare becomes the wire's read buffer in its place
// (its contents are dead from here on); a stream passes the checkpoint it is
// replacing, so the two buffers trade places at every checkpoint and neither
// is copied.
func (w *wire) detach(spare []byte) []byte {
	payload := w.rbuf[:len(w.rbuf)-sha256.Size]
	w.rbuf = spare[:0]
	return payload
}

// roundTrip sends a request with a ready-made payload and reads the single
// reply, decoding an error reply into the error it carries. Reply payloads
// alias the wire's read buffer.
func (w *wire) roundTrip(v verb, payload []byte) (verb, []byte, error) {
	return w.exchange(append(w.begin(v), payload...))
}

// exchange is roundTrip for a request the caller built in place with begin.
func (w *wire) exchange(msg []byte) (verb, []byte, error) {
	if err := w.finish(msg); err != nil {
		return 0, nil, err
	}
	rv, rp, err := w.recv()
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("fleet: %s: connection closed before reply", verb(w.wbuf[5]))
		}
		return 0, nil, err
	}
	if rv == vErrReply {
		return 0, nil, decodeErrReply(rp)
	}
	return rv, rp, nil
}

// --- payload encodings -------------------------------------------------
//
// The fleet-owned structures are written and read through internal/binfmt,
// the cursor the snapshot payload uses too; anything slam owns goes through
// slam.Append*/Decode*.

// --- error replies ------------------------------------------------------

// Error-reply codes: the machine-readable half of a vErrReply, so routers
// can distinguish "try the next node" (admission, draining) from real
// failures without parsing message text.
const (
	codeInternal byte = iota + 1
	codeProto
	codeAdmission
	codeDraining
)

func encodeErrReply(buf []byte, code byte, msg string) []byte {
	e := binfmt.Enc{Buf: buf}
	e.U8(code)
	e.Str(msg)
	return e.Buf
}

func decodeErrReply(b []byte) error {
	d := binfmt.NewDec(b)
	code := d.U8()
	msg := d.Str()
	if err := d.Finish("fleet: err payload"); err != nil {
		return err
	}
	switch code {
	case codeAdmission:
		return fmt.Errorf("%w: %s", ErrAdmission, msg)
	case codeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	default:
		return &remoteError{code: code, msg: msg}
	}
}

// remoteError is a decoded vErrReply that is not a placement bounce: the
// remote is alive and answered — the failure is in the request, not the
// transport. Recovery classification (isNodeLoss) keys on this type: a
// remoteError must never trigger a checkpoint-replay re-place, because
// replaying the same conversation to another node would fail identically.
type remoteError struct {
	code byte
	msg  string
}

func (e *remoteError) Error() string {
	if e.code == codeProto {
		return "fleet: protocol misuse: " + e.msg
	}
	return "fleet: remote error: " + e.msg
}

// --- open / restore payloads -------------------------------------------

// openPayload carries everything a node needs to start a session: the
// stream's name, its pipeline configuration, and the camera intrinsics the
// frames will match.
func encodeOpen(buf []byte, name string, cfgBytes, intrBytes []byte) []byte {
	e := binfmt.Enc{Buf: buf}
	e.Str(name)
	e.Bytes(cfgBytes)
	e.Bytes(intrBytes)
	return e.Buf
}

func decodeOpen(b []byte) (name string, cfgBytes, intrBytes []byte, err error) {
	d := binfmt.NewDec(b)
	name = d.Str()
	cfgBytes = d.Bytes()
	intrBytes = d.Bytes()
	return name, cfgBytes, intrBytes, d.Finish("fleet: open payload")
}

// heldFrame is one pushed frame a stream keeps, encoded as it was pushed
// (slam.AppendFrame): the stream's frame at position pos.
type heldFrame struct {
	pos int
	b   []byte
}

// restorePayload carries a stream's name, a slam session snapshot (AGSSNAP
// bytes, themselves checksummed) and the frames that snapshot names without a
// body, each with its stream position and encoded as it was pushed: the
// message a router sends to the peer taking over a drained or lost node's
// stream.
func encodeRestore(buf []byte, name string, snap []byte, held []heldFrame) []byte {
	// Sized up front, message trailer included: the payload is hundreds of
	// kilobytes and buf is usually a fresh connection's, so it should be made
	// once.
	size := 8 + len(name) + 8 + len(snap) + 8 + sha256.Size
	for _, h := range held {
		size += 8 + 8 + len(h.b)
	}
	e := binfmt.Enc{Buf: binfmt.Grow(buf, size)}
	e.Str(name)
	e.Bytes(snap)
	e.U64(uint64(len(held)))
	for _, h := range held {
		e.I64(int64(h.pos))
		e.Bytes(h.b)
	}
	return e.Buf
}

// decodeRestore decodes the supplied frames through slam.DecodeFrame, the path
// a pushed frame takes; snap aliases b, the frames do not.
func decodeRestore(b []byte) (name string, snap []byte, held []slam.HeldFrame, err error) {
	d := binfmt.NewDec(b)
	name = d.Str()
	snap = d.Bytes()
	held = make([]slam.HeldFrame, d.Len(16))
	for i := range held {
		pos, fb := int(d.I64()), d.Bytes()
		if d.Err() != nil {
			break
		}
		f, err := slam.DecodeFrame(fb)
		if err != nil {
			d.Fail("supplied frame at position %d: %v", pos, err)
			break
		}
		held[i] = slam.HeldFrame{Pos: pos, Frame: f}
	}
	return name, snap, held, d.Finish("fleet: restore payload")
}

// The snapshot request's payload is the list of stream positions whose frames
// the requester holds (empty when it holds none): the node leaves those
// frames' bodies out of the snapshot it sends back.
func encodePositions(buf []byte, pos []int) []byte {
	e := binfmt.Enc{Buf: buf}
	e.U64(uint64(len(pos)))
	for _, p := range pos {
		e.I64(int64(p))
	}
	return e.Buf
}

// decodePositions appends the request's positions to dst.
func decodePositions(dst []int, b []byte) ([]int, error) {
	d := binfmt.NewDec(b)
	for n := d.Len(8); n > 0; n-- {
		dst = append(dst, int(d.I64()))
	}
	return dst, d.Finish("fleet: snapshot payload")
}

// okPayload is a single counter: zero for plain acknowledgements, the
// restored system's processed-frame count for restore replies (the index of
// the next frame the producer must push).
func encodeOK(buf []byte, frames int) []byte {
	e := binfmt.Enc{Buf: buf}
	e.U64(uint64(frames))
	return e.Buf
}

func decodeOK(b []byte) (int, error) {
	d := binfmt.NewDec(b)
	n := d.U64()
	return int(n), d.Finish("fleet: ok payload")
}
