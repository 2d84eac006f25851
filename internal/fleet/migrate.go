package fleet

import (
	"fmt"
)

// Mid-stream migration: when a node drains, its live streams move to peers
// without losing a frame or perturbing a single output bit. The move runs
// lazily, at each stream's next Push, on the stream's own producer goroutine
// — so the session's one-producer contract holds through the hand-off and no
// cross-goroutine coordination touches pipeline state. The sequence:
//
//  1. snapshot: the draining node snapshots the session between frames
//     (every pushed frame processed, the last one's mapping pending and
//     carried as data) and ships the AGSSNAP bytes — themselves versioned
//     and checksummed — back. A
//     stream with recovery armed holds frames and says so, and gets a
//     snapshot without their bodies, like any checkpoint; a stream without
//     holds none, says so with an empty list, and gets every body inline.
//  2. close: the old session is closed and its partial Result discarded;
//     the snapshot already captured everything that matters.
//  3. restore: a placement-ordered peer rebuilds the session from the
//     snapshot (and the held frames) and reports its processed-frame count,
//     which must equal the frames pushed so far (restoreOn's continuity
//     check).
//
// Because the snapshot codec is the determinism contract (see slam's
// snapshot tests), the migrated stream's Close digest is bit-identical to an
// uninterrupted run — asserted end-to-end by TestFleetMigrationKeepsDigest.

// migrate moves the stream off its (draining) current node onto the best
// admitting peer. On failure the stream is left closed-over — its connection
// torn down — because the old session's continuation point is unrecoverable
// once the snapshot conversation fails midway; the producer sees the error
// from Push.
func (s *Stream) migrate() error {
	// 1. Snapshot on the draining node. The payload aliases the wire's read
	// buffer and the connection is used again below, so take the buffer over.
	rv, snap, err := s.requestSnapshot()
	if err != nil {
		s.teardown()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := s.readSnapshot(rv, snap); err != nil {
		s.teardown()
		return err
	}
	if s.recoveryEnabled() {
		// The drain snapshot is as good as a scheduled checkpoint: adopt it
		// so a node death later in the hand-off (or any time after) recovers
		// from this exact point with an empty replay buffer.
		s.setCheckpoint(s.pushed)
		snap = s.checkpoint
	} else {
		// Nothing held, so nothing left out: the snapshot stands alone.
		snap = s.w.detach(nil)
	}

	// 2. Close the old session; its partial Result is superseded by the
	// snapshot. A failure here still leaves the snapshot usable, so only a
	// transport error aborts.
	if _, _, err := s.w.roundTrip(vClose, nil); err != nil {
		s.teardown()
		return fmt.Errorf("close after snapshot: %w", err)
	}
	s.teardown()

	// 3. Restore on the best admitting peer, placement order.
	if err := s.reattach(snap, s.pushed); err != nil {
		return err
	}
	s.migrations++
	s.r.mu.Lock()
	s.r.migrations++
	s.r.mu.Unlock()
	return nil
}

// teardown closes the stream's current connection and detaches it.
func (s *Stream) teardown() {
	if s.w != nil {
		s.w.Close()
		s.w = nil
	}
}

// restoreOn restores a session from a snapshot, and the frames it names
// without a body, on the node at addr. The restore request is built around
// them in the new connection's write buffer, the one copy this side makes.
// The node reports the restored system's processed-frame count, which must
// equal frames, the count the snapshot was taken at — the continuity check
// that turns a silent half-restored stream into a loud error, because pushing
// on from the wrong frame would corrupt the output.
func restoreOn(addr, name string, snap []byte, held []heldFrame, frames int) (*wire, error) {
	w, reply, err := bindOn(addr, vRestore, func(msg []byte) []byte {
		return encodeRestore(msg, name, snap, held)
	})
	if err != nil {
		return nil, err
	}
	got, err := decodeOK(reply)
	if err != nil {
		w.Close()
		return nil, err
	}
	if got != frames {
		w.roundTrip(vClose, nil)
		w.Close()
		return nil, fmt.Errorf("%w: node at frame %d, snapshot at %d", errContinuity, got, frames)
	}
	return w, nil
}
