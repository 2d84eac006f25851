package fleet

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ags/internal/slam"
)

// Checkpoint-replay recovery: surviving *unclean* node death without moving
// a single output bit. Graceful drain (migrate.go) can ask the dying node
// for a snapshot; an uncleanly killed node cannot be asked for anything, so
// the stream keeps its own insurance on the router side:
//
//   - a checkpoint: the last AGSSNAP snapshot taken over the wire (the same
//     snapshot verb migration uses) every CheckpointEvery acknowledged
//     pushes. It is the map, its optimizer state and the running digest;
//     the frames the session retains (previous frame, key frame, key-frame
//     window) it names by stream position only, because the router pushed
//     every one of them and still has the bytes;
//   - the held frames: those frames, encoded as they were pushed. Each is a
//     replay slot the stream kept when its checkpoint came to depend on it
//     and lets go of when a later checkpoint no longer names it, so there are
//     never more than the session's key-frame window plus two; and
//   - a replay buffer: every encoded frame acknowledged since that
//     checkpoint, in push order — bounded by CheckpointEvery frames (plus
//     the one in flight), because the buffer is cleared each time a
//     checkpoint lands.
//
// Who owns which slot when is in the package doc (Buffer ownership). A
// restore ships the checkpoint with the held frames behind it, and the node
// refuses it unless they are exactly the frames the checkpoint leaves out.
//
// When a push, snapshot, or close fails, the error is classified first
// (isNodeLoss): placement bounces and remote application errors are not
// node loss and are never retried elsewhere — replaying the same
// conversation to another node would fail identically. A transport failure
// is node loss: the stream re-places itself through the same least-loaded
// candidate order as Open, restores the checkpoint on the chosen peer
// (frame-count checked, exactly like migration), replays the buffered frames
// in order, and continues as if nothing happened. Because the snapshot codec
// is the determinism contract, the recovered stream's Close digest is
// bit-identical to an undisturbed sequential run — asserted under -race by
// the recovery tests (TestRecoverKillDuringPush, TestRecoverKillDuringSnapshot,
// TestSeverOnlyConnRecoversInPlace).
//
// Transient placement failures (every reachable peer bounced the restore, or
// no peer is reachable yet) are retried with a bounded, deterministic
// backoff: the delay is a pure function of the attempt index — no clock is
// read — so the retry schedule is identical on every run.

// Recovery failure modes, distinct and testable.
var (
	// ErrNodeLost: the connection to the stream's serving node failed and
	// the stream could not (or was not configured to) recover. Errors
	// wrapping it carry a *NodeLostError with the node's name and the
	// last-acknowledged frame count.
	ErrNodeLost = errors.New("fleet: serving node lost")
	// ErrNoPeer: a placement walk found no node that would take the stream
	// (none reachable, or every candidate bounced). Transient: the recovery
	// loop retries it with deterministic backoff.
	ErrNoPeer = errors.New("fleet: no node would take the stream")
	// ErrRecoveryExhausted: every bounded recovery attempt failed.
	ErrRecoveryExhausted = errors.New("fleet: recovery attempts exhausted")
)

// errContinuity marks a restore that came back at a different frame count
// than the snapshot was taken at. No other candidate can fix that, so the
// placement walk and the recovery attempt loop both stop on it.
var errContinuity = errors.New("fleet: restore continuity check failed")

// NodeLostError reports which node died under a stream and how many frames
// it had acknowledged — the resume point a caller with its own frame source
// could replay from. errors.Is(err, ErrNodeLost) matches it.
type NodeLostError struct {
	Node  string // name of the lost node
	Acked int    // frames acknowledged before the loss
	Cause error  // the underlying transport failure
}

func (e *NodeLostError) Error() string {
	return fmt.Sprintf("fleet: node %q lost after %d acked frame(s): %v", e.Node, e.Acked, e.Cause)
}

func (e *NodeLostError) Is(target error) bool { return target == ErrNodeLost }

func (e *NodeLostError) Unwrap() error { return e.Cause }

// StreamOptions arms and tunes a stream's fault tolerance. The zero value
// disables recovery entirely (Open's default): node loss then surfaces as
// ErrNodeLost with a partial summary.
type StreamOptions struct {
	// CheckpointEvery > 0 enables checkpoint-replay recovery: the stream
	// snapshots its session over the wire every CheckpointEvery
	// acknowledged pushes and keeps the frames since in a replay buffer
	// (bounded by the same number). Smaller values bound replay work and
	// buffer memory tighter; larger values take fewer snapshots.
	CheckpointEvery int
	// Sleep, if non-nil, replaces time.Sleep for the backoff delays (tests
	// inject a counter to assert the schedule without waiting it out).
	Sleep func(time.Duration)
}

// Recovery makes defaultRecoverAttempts re-placement attempts per failure.
// The delay before the second is defaultBackoffBase, doubling each attempt
// after that — a pure function of the attempt index, so the schedule is
// deterministic: 5, 10, 20 ms.
const (
	defaultRecoverAttempts = 4
	defaultBackoffBase     = 5 * time.Millisecond
)

// isNodeLoss classifies a request failure: true means the transport to the
// node failed (died mid-conversation, refused the dial, truncated or
// corrupted a frame) — the cases checkpoint-replay recovery exists for.
// False means the node is alive and answered: placement bounces
// (ErrAdmission, ErrDraining) and remote application errors (remoteError)
// must never trigger a re-place, because the same request would fail the
// same way anywhere.
func isNodeLoss(err error) bool {
	if err == nil {
		return false
	}
	var re *remoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, ErrAdmission) && !errors.Is(err, ErrDraining)
}

func (s *Stream) recoveryEnabled() bool { return s.opts.CheckpointEvery > 0 }

// closedErr explains an operation on a detached stream: "after Close" for a
// clean close, the sticky error otherwise.
func (s *Stream) closedErr(op string) error {
	if s.lost != nil {
		return fmt.Errorf("fleet: stream %q: %s: %w", s.name, op, s.lost)
	}
	return fmt.Errorf("fleet: stream %q: %s after Close", s.name, op)
}

// asNodeLost wraps a transport failure as a NodeLostError unless it already
// is one (recovery exhaustion wraps the original loss itself).
func (s *Stream) asNodeLost(err error, node string) error {
	if errors.Is(err, ErrNodeLost) {
		return err
	}
	return &NodeLostError{Node: node, Acked: s.pushed, Cause: err}
}

// bufferFrame retains one encoded frame for replay. Deliberately outside the
// Push hot path proper: the copy allocates until the buffer's slots reach
// their high-water marks, which is the price of recovery, paid only when it
// is armed.
func (s *Stream) bufferFrame(b []byte) {
	if n := len(s.replay); cap(s.replay) > n {
		// Reuse a cleared slot's backing array before growing anything.
		slot := s.replay[:n+1][n]
		s.replay = append(s.replay, append(slot[:0], b...))
		return
	}
	s.replay = append(s.replay, append([]byte(nil), b...))
}

// dropLastBuffered removes the in-flight frame from the replay buffer after
// a push the node rejected without dying — the frame was never acknowledged
// and must not be replayed later.
func (s *Stream) dropLastBuffered() {
	if n := len(s.replay); n > 0 {
		s.replay = s.replay[:n-1]
	}
}

// requestSnapshot asks the serving node for a snapshot of the session, telling
// it which frames the stream holds (the held set and the replay buffer) so
// that it sends their positions and not their bodies. The reply's payload
// aliases the wire's read buffer.
func (s *Stream) requestSnapshot() (verb, []byte, error) {
	s.have = s.have[:0]
	for _, h := range s.held {
		s.have = append(s.have, h.pos)
	}
	for i := range s.replay {
		s.have = append(s.have, s.checkpointFrames+i)
	}
	return s.w.exchange(encodePositions(s.w.begin(vSnapshot), s.have))
}

// slot returns where the stream keeps its copy of the frame at position pos,
// in the held set or the replay buffer; nil when it has neither.
func (s *Stream) slot(pos int) *[]byte {
	for i := range s.held {
		if s.held[i].pos == pos {
			return &s.held[i].b
		}
	}
	if i := pos - s.checkpointFrames; i >= 0 && i < len(s.replay) {
		return &s.replay[i]
	}
	return nil
}

// readSnapshot checks a snapshot reply before the stream comes to depend on
// it: it is a snapshot, and every frame it leaves out is one the stream has.
// The positions of those frames are left in s.missing for setCheckpoint.
func (s *Stream) readSnapshot(rv verb, snap []byte) error {
	if rv != vSnapData {
		return fmt.Errorf("snapshot reply verb %s", rv)
	}
	var err error
	if s.missing, err = slam.MissingFrames(s.missing[:0], snap); err != nil {
		return err
	}
	for i, pos := range s.missing {
		if s.slot(pos) == nil {
			return fmt.Errorf("snapshot leaves out the frame at position %d, which the stream does not hold", pos)
		}
		if slices.Contains(s.missing[:i], pos) {
			return fmt.Errorf("snapshot lists the frame at position %d twice", pos)
		}
	}
	return nil
}

// setCheckpoint adopts the snapshot the stream's wire has just received and
// readSnapshot has passed, taken at `frames` processed frames. Nothing is
// copied. The wire's read buffer becomes the checkpoint and the buffer of the
// checkpoint it replaces becomes the wire's read buffer. The held set becomes
// the slots the snapshot depends on (s.missing), taken over from the old held
// set or out of the replay buffer; every other slot, the rest of the old held
// set included, ends up in the cleared replay buffer's spare capacity, where
// bufferFrame finds it.
func (s *Stream) setCheckpoint(frames int) {
	next := s.heldNext[:0]
	for _, pos := range s.missing {
		sl := s.slot(pos)
		next = append(next, heldFrame{pos: pos, b: *sl})
		*sl = nil
	}
	// What was not taken is spare, slots beyond replay's length (earlier
	// spares) included; compacting in place never overtakes the read.
	spare := s.replay[:0]
	for _, b := range s.replay[:cap(s.replay)] {
		if b != nil {
			spare = append(spare, b)
		}
	}
	for _, h := range s.held {
		if h.b != nil {
			spare = append(spare, h.b)
		}
	}
	clear(spare[len(spare):cap(spare)])
	s.replay = spare[:0]
	s.held, s.heldNext = next, s.held[:0]
	s.checkpoint = s.w.detach(s.checkpoint)
	s.checkpointFrames = frames
}

// pushFailed handles a failed push round trip; nil means recovery replayed
// the frame onto a new node and the push counts as acknowledged.
func (s *Stream) pushFailed(err error) error {
	if !isNodeLoss(err) {
		if s.recoveryEnabled() {
			s.dropLastBuffered()
		}
		return fmt.Errorf("fleet: stream %q: push: %w", s.name, err)
	}
	node := s.node.name
	if !s.recoveryEnabled() {
		s.teardown()
		s.lost = s.asNodeLost(err, node)
		return fmt.Errorf("fleet: stream %q: push: %w", s.name, s.lost)
	}
	if rerr := s.recover(err); rerr != nil {
		return fmt.Errorf("fleet: stream %q: push: %w", s.name, rerr)
	}
	return nil
}

// migrateFailed handles a failed graceful migration; nil means recovery
// rebuilt the stream from its checkpoint instead. A failed migration has
// detached the stream, so whatever it failed with becomes the sticky error:
// a node loss recovery could not mend, or a refusal such as ErrNoPeer.
func (s *Stream) migrateFailed(err error) error {
	node := s.node.name
	switch {
	case !isNodeLoss(err):
		s.lost = err
	case !s.recoveryEnabled():
		s.lost = s.asNodeLost(err, node)
	case s.recover(err) == nil:
		return nil
	}
	// A recover that failed has set s.lost itself.
	return fmt.Errorf("fleet: stream %q: migrate off %q: %w", s.name, node, s.lost)
}

// maybeCheckpoint takes a checkpoint once enough pushes have been acknowledged
// since the last one.
func (s *Stream) maybeCheckpoint() error {
	if s.pushed-s.checkpointFrames < s.opts.CheckpointEvery {
		return nil
	}
	return s.takeCheckpoint()
}

// takeCheckpoint snapshots the session over the wire. The replay buffer is
// cleared only after the snapshot bytes are safely in hand, so a node death
// *during* the snapshot loses nothing: recovery falls back to the previous
// checkpoint (or a fresh open) plus the intact buffer.
func (s *Stream) takeCheckpoint() error {
	rv, snap, err := s.requestSnapshot()
	if err != nil {
		if !isNodeLoss(err) {
			return fmt.Errorf("fleet: stream %q: checkpoint: %w", s.name, err)
		}
		if rerr := s.recover(err); rerr != nil {
			return fmt.Errorf("fleet: stream %q: checkpoint: %w", s.name, rerr)
		}
		rv, snap, err = s.requestSnapshot()
		if err != nil {
			return fmt.Errorf("fleet: stream %q: checkpoint after recovery: %w", s.name, err)
		}
	}
	if err := s.readSnapshot(rv, snap); err != nil {
		return fmt.Errorf("fleet: stream %q: checkpoint: %w", s.name, err)
	}
	s.setCheckpoint(s.pushed)
	return nil
}

// recover re-places the stream after node loss: bounded attempts, each one
// walking the placement candidate order (restore checkpoint or open fresh,
// then replay), with deterministic backoff between attempts for transient
// no-peer failures. On success the stream is attached to its new node with
// every buffered frame acknowledged there; on failure the stream is lost
// for good and the sticky error is set.
func (s *Stream) recover(cause error) error {
	lost := s.node.name
	s.teardown()
	sleep := s.opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	last := cause
	for attempt := 0; attempt < defaultRecoverAttempts; attempt++ {
		if attempt > 0 {
			sleep(defaultBackoffBase << (attempt - 1))
		}
		err := s.reattach(s.checkpoint, s.checkpointFrames)
		if err == nil {
			s.recoveries++
			s.replayed += len(s.replay)
			s.r.mu.Lock()
			s.r.recoveries++
			s.r.replayedFrames += len(s.replay)
			s.r.mu.Unlock()
			return nil
		}
		last = err
		if !errors.Is(err, ErrNoPeer) {
			// Fatal: no amount of retrying fixes a continuity mismatch or a
			// remote application error.
			s.lost = s.asNodeLost(err, lost)
			return s.lost
		}
	}
	s.lost = &NodeLostError{
		Node: lost, Acked: s.pushed,
		Cause: fmt.Errorf("%w after %d attempt(s): %w", ErrRecoveryExhausted, defaultRecoverAttempts, last),
	}
	return s.lost
}

// reattach binds the stream to a freshly placed node: the first candidate, in
// placement order, on which attach succeeds. Migration calls it with the
// drain snapshot, recovery with the last checkpoint (nil before the first);
// the frames either leaves out are the held set.
func (s *Stream) reattach(snap []byte, frames int) error {
	node, w, _, err := s.r.place(func(addr string) (*wire, error) {
		return s.attach(addr, snap, frames)
	})
	if err != nil {
		return err
	}
	s.w, s.node = w, node
	return nil
}

// attach rebuilds the stream's session on one candidate node: restore the
// snapshot with the held frames (or open fresh when there is none yet), then
// replay the buffered frames in push order. Any failure leaves no connection
// behind.
func (s *Stream) attach(addr string, snap []byte, frames int) (*wire, error) {
	var w *wire
	var err error
	if snap != nil {
		w, err = restoreOn(addr, s.name, snap, s.held, frames)
	} else {
		w, err = openOn(addr, s.openPayload)
	}
	if err != nil {
		return nil, err
	}
	for i, fb := range s.replay {
		rv, _, err := w.roundTrip(vPush, fb)
		if err == nil && rv != vOK {
			err = fmt.Errorf("reply verb %s", rv)
		}
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("replay frame %d/%d: %w", i+1, len(s.replay), err)
		}
	}
	return w, nil
}
