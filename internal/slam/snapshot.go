package slam

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"ags/internal/binfmt"
	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/mapper"
	"ags/internal/metrics"
	"ags/internal/splat"
	"ags/internal/vecmath"
)

// Snapshot format: an 8-byte magic, a version word, the length-prefixed
// little-endian payload, and a trailing SHA-256 over everything before it.
// The checksum is verified before any field is decoded, so a truncated or
// bit-flipped snapshot fails loudly instead of restoring a subtly wrong
// session. The format is versioned, not self-describing: any change to the
// encoded fields bumps SnapshotVersion, and Restore rejects versions it does
// not speak.
//
// Frame table (since version 2). The payload opens with the fixed-size fields
// (configuration, intrinsics, frame count, three poses) and then the table of
// retained frames: the mapper's key-frame window, the previous frame and the
// key frame, each listed once. An entry is
//
//	position (i64) | body length (u64) | body
//
// where position is the frame's place in the stream (how many frames the
// system had accepted before it) and body is the frame exactly as AppendFrame
// encodes it, which is also how it crossed the wire in a push. A body length
// of zero means the body is left out: whoever asked for the snapshot said it
// already holds the frame at that position (AppendSnapshot's have list) and
// hands it back when it restores (RestoreSession's held list). Everything
// after the table refers to a frame by its table index. A snapshot taken with
// an empty have list carries every body and restores on its own; that is what
// Snapshot and ags-slam -snapshot write.
const (
	snapshotMagic = "AGSSNAP\x00"
	// SnapshotVersion is the binary format revision Snapshot writes and
	// Restore accepts. Version 2 names every retained frame by its stream
	// position and makes its body optional. Version 3 stores a Gaussian as
	// its eight parameters (mean, log-scale, color, logit; no rotation), the
	// mapper's contribution state as its skip set alone, and the
	// configuration without the slots nothing read. Version 4 drops the
	// map's per-Gaussian active flags (a prune removes what it prunes) and
	// the configuration's compaction knobs and mapper worker count (the
	// system's Workers governs the mapper). Version 5 stores a trace's
	// representative-iteration detail packed: the per-pixel planes and the
	// mapping task's tile lists, which are one ID sequence and its per-tile
	// offsets; a tracking task carries no tile lists. A snapshot without
	// detail differs from version 4 in its version word only.
	// Version 6 drops the configuration's settings that became constants
	// (codec early termination, the mapper's contribution threshold, seed,
	// densification thresholds and three learning rates) and, from every
	// per-frame trace, the compaction counts and the logging-stream slot,
	// which only restated PrunedGaussians and the key frame's tile lists.
	// Version 7 drops the configuration's backbone, which only set the
	// mapper's iteration count and key-frame window that it carries anyway.
	// Version 8 drops the trace detail and the image size it was recorded
	// at: a trace frame's tasks are their seven scalars, so a stream's
	// snapshot at a frame is the same bytes whichever venue took it.
	// Version 9 is the system with its last frame's mapping tail pending: the
	// map, moments, skip set and RNG as they stood before that tail (the
	// key-frame window already holds the tail's frame), the tail's partial
	// trace frame last among the traces, and a flag that says the tail is
	// pending. The tail's frame is the previous frame and its mapping follows
	// from its recorded key-frame decision and the configuration.
	// Version 10 holds the history as its running digest, the hash chain and
	// the ATE moments (counting the frames processed but a pending tail's), in
	// place of every frame's poses, decisions and trace scalars, and the
	// pending tail as one record (pose, ground truth, decisions, partial
	// trace): a snapshot grows with the map, not with the stream's age.
	// Version 11 drops the configuration's render worker count, which
	// nothing reads since a splat pass's participants are its caller and
	// the producer's help.
	// Version 12 records each of a frame's decisions once: the record is the
	// two poses and the frame's trace, which holds the key-frame covisibility
	// and the false-positive rate too, without the stream position (the
	// chain's order says it) and the refinement iterations (the tracking
	// task's). The configuration drops Thresh_T and the skip criterion's
	// contributing-pixel bound, which are constants.
	// Version 13 drops opacity pruning: the record loses the frame's pruned
	// count and the configuration the prune cadence, the opacity threshold
	// and the logit learning rate, which is a constant.
	SnapshotVersion = 13

	snapshotHeader = len(snapshotMagic) + 4 // magic, version
)

// Snapshot serializes the system's complete inter-frame state — configuration,
// camera, pose track, keyframe set, the stream's running digest (hash chain
// and ATE moments), the Gaussian map, optimizer moments, the mapper's RNG,
// and the last frame's mapping tail with its record if it is pending — so
// that a system restored from it and fed the remaining frames produces a
// Result digest-identical to the uninterrupted run. The per-frame history an
// offline venue keeps is left out (see the package doc), so the bytes do not
// depend on the venue that took them. Call it between ProcessFrame calls. It joins nothing:
// the map it captures is the one the next frame refines against, the map
// before the pending tail, and the tail itself goes as data, which Restore
// turns back into a pending tail. A snapshot therefore never perturbs the
// stream it is taken of.
func (s *System) Snapshot(w io.Writer) error {
	if _, err := w.Write(s.AppendSnapshot(nil, nil)); err != nil {
		return fmt.Errorf("slam: snapshot write: %w", err)
	}
	return nil
}

// AppendSnapshot appends the framed snapshot Snapshot writes to dst and
// returns the extended slice, so a caller that ships snapshots (a fleet node's
// connection buffer) encodes every one into the same buffer. A counting pass
// sizes the snapshot first: it is megabytes of 4- and 8-byte appends, and
// growing the buffer through them re-allocated and copied more bytes than the
// snapshot holds. dst is therefore grown at most once per call, geometrically
// (binfmt.Grow), with one checksum of capacity to spare, so that a caller
// framing the snapshot inside its own checksummed message appends that
// trailer in place too.
//
// have lists the stream positions of frames the caller already holds, byte
// for byte as they were pushed: the snapshot names a retained frame at one of
// those positions without its body, and restores only together with the frames
// it left out (RestoreSession; MissingFrames lists them). Positions the system
// does not retain are ignored. With no have list every body is written and the
// snapshot stands alone.
//
// Like Snapshot it joins nothing: the last frame's mapping tail goes into the
// bytes pending, so the system goes on exactly as if no snapshot was taken.
//
//ags:hotpath
func (s *System) AppendSnapshot(dst []byte, have []int) []byte {
	size := binfmt.Counting()
	encodeSystem(&size, s, have)
	start := len(dst)
	e := binfmt.Enc{Buf: binfmt.Grow(dst, snapshotHeader+size.Len()+2*sha256.Size)}
	e.Buf = append(e.Buf, snapshotMagic...)
	e.U32(SnapshotVersion)
	encodeSystem(&e, s, have)
	sum := sha256.Sum256(e.Buf[start:])
	e.Raw(sum[:])
	return e.Buf
}

// HeldFrame is a frame a requester kept instead of receiving it back in a
// snapshot: the stream's frame at position Pos.
type HeldFrame struct {
	Pos   int
	Frame *frame.Frame
}

// ErrFrameTable is what a restore wraps when a snapshot's frame table and the
// frames supplied with it do not make a whole: a body-less entry nobody
// supplied, a supplied frame no entry asks for, a position listed twice or
// beyond the frames processed, a frame that is malformed or not the camera's
// size.
var ErrFrameTable = errors.New("snapshot frame table")

// Restore rebuilds a standalone System from a snapshot stream. The system
// draws its render context from DefaultServer's pool, exactly like New;
// FrameCount tells the caller which frame to push next. It is an offline
// venue, so it keeps the per-frame history, trace detail included, from that
// frame on; the frames before it are in the snapshot's digest. Multi-tenant
// hosts restore into a session via (*Server).RestoreSession instead.
func Restore(r io.Reader) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("slam: snapshot read: %w", err)
	}
	return restoreSystem(data, nil, DefaultServer().ContextPool(), offline)
}

// snapshotPayload checks a snapshot's envelope (length, magic, version) and
// returns what lies between the header and the trailing checksum, which it
// does not verify.
func snapshotPayload(data []byte) ([]byte, error) {
	if len(data) < snapshotHeader+sha256.Size {
		return nil, fmt.Errorf("slam: snapshot truncated: %d bytes", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("slam: not a snapshot (bad magic)")
	}
	version := binary.LittleEndian.Uint32(data[len(snapshotMagic):snapshotHeader])
	if version != SnapshotVersion {
		return nil, fmt.Errorf("slam: snapshot version %d, this build reads %d", version, SnapshotVersion)
	}
	return data[snapshotHeader : len(data)-sha256.Size], nil
}

// restoreSystem decodes a snapshot over the given context pool, taking the
// frames its table names without a body from held. The venue is the restoring
// one, as in newSystem: the bytes say nothing about it, and an offline system
// keeps the per-frame history from its first new frame on (the snapshot
// carries it as a digest). Nothing of the restored system aliases data; the
// held frames it adopts.
func restoreSystem(data []byte, held []HeldFrame, pool *splat.ContextPool, v venue) (*System, error) {
	payload, err := snapshotPayload(data)
	if err != nil {
		return nil, err
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); string(got[:]) != string(sum) {
		return nil, fmt.Errorf("slam: snapshot checksum mismatch (truncated or corrupted)")
	}
	d := binfmt.NewDec(payload)
	sys := decodeSystem(d, held, pool, v)
	if err := d.Finish("slam: snapshot decode"); err != nil {
		return nil, err
	}
	return sys, nil
}

// MissingFrames appends to dst the stream positions of the frames snap's table
// names without a body, in table order: the frames a restore of snap has to be
// handed. It reads the envelope and the table and nothing behind them, and it
// does not verify the checksum (a restore does).
func MissingFrames(dst []int, snap []byte) ([]int, error) {
	payload, err := snapshotPayload(snap)
	if err != nil {
		return dst, err
	}
	d := binfmt.NewDec(payload)
	skipToFrameTable(d)
	missing := dst
	for n := d.Len(frameEntryMin); n > 0; n-- {
		pos := d.I64()
		if len(d.Bytes()) == 0 {
			missing = append(missing, int(pos))
		}
	}
	if err := d.Err(); err != nil {
		return dst, fmt.Errorf("slam: %w: %w", ErrFrameTable, err)
	}
	return missing, nil
}

// skipToFrameTable reads past the fixed-size fields the payload opens with:
// configuration, intrinsics, frame count and the three poses.
func skipToFrameTable(d *binfmt.Dec) {
	var cfg Config
	decodeConfig(d, &cfg)
	var intr camera.Intrinsics
	decodeIntrinsics(d, &intr)
	d.I64()
	for range 3 {
		getPose(d)
	}
}

// encodeSystem writes every field a restored system needs. The tracker
// (refiner, aligner) and covisibility detector carry no cross-frame state
// that outputs depend on — they are rebuilt from the config.
func encodeSystem(e *binfmt.Enc, s *System, have []int) {
	encodeConfig(e, &s.Cfg)
	encodeIntrinsics(e, &s.Intr)
	e.I64(int64(s.frameCount))
	putPose(e, s.prevPose)
	putPose(e, s.prevRel)
	putPose(e, s.keyPose)

	// Frame table: the retained frames, each once (the previous frame, the
	// key frame and the mapper's keyframe window may be one frame, and the
	// restored system must alias them the same way), named by stream position,
	// with the body of every frame the requester does not already hold.
	st := s.mapper.ExportState()
	table := collectFrames(s, st)
	e.U64(uint64(len(table)))
	for _, r := range table {
		e.I64(int64(r.pos))
		if slices.Contains(have, r.pos) {
			e.U64(0)
			continue
		}
		size := binfmt.Counting()
		encodeFrame(&size, r.f)
		e.U64(uint64(size.Len()))
		encodeFrame(e, r.f)
	}
	e.I64(frameRef(table, s.prevFrame, s.frameCount-1))
	e.I64(frameRef(table, s.keyFrame, s.keyFramePos))

	// The history: the chain, the moments, and the pending tail's record.
	e.Raw(s.chain[:])
	encodeMoments(e, &s.ate)
	e.Bool(s.tail != nil)
	if s.tail != nil {
		encodeRecord(e, &s.tail.rec)
	}

	// Mapper state: cloud, skip set, keyframe window (as frame table
	// references), RNG and optimizer moments.
	encodeCloud(e, st.Cloud)
	e.Bools(st.SkipSet)
	e.U64(uint64(len(st.Keyframes)))
	for _, kf := range st.Keyframes {
		e.I64(frameRef(table, kf.Frame, kf.Pos))
		putPose(e, kf.Pose)
	}
	e.U64(st.RNG)
	e.U64(uint64(len(st.Opt)))
	for _, g := range st.Opt {
		e.Str(g.Name)
		e.I64(int64(g.Step))
		e.F64s(g.M)
		e.F64s(g.V)
	}
}

func decodeSystem(d *binfmt.Dec, held []HeldFrame, pool *splat.ContextPool, v venue) *System {
	var cfg Config
	decodeConfig(d, &cfg)
	var intr camera.Intrinsics
	decodeIntrinsics(d, &intr)
	if d.Err() != nil {
		return nil
	}
	if err := intr.Validate(); err != nil {
		d.Fail("%w", err)
		return nil
	}
	sys := newSystem(cfg, intr, pool, v)
	if sys.frameCount = int(d.I64()); sys.frameCount < 0 {
		d.Fail("%d frames processed", sys.frameCount)
	}
	sys.prevPose = getPose(d)
	sys.prevRel = getPose(d)
	sys.keyPose = getPose(d)

	table := decodeFrameTable(d, held, sys.frameCount, &sys.Intr)
	prev := deref(d, table, d.I64())
	key := deref(d, table, d.I64())
	sys.prevFrame = prev.f
	sys.keyFrame, sys.keyFramePos = key.f, key.pos
	switch {
	case d.Err() != nil:
	case sys.frameCount > 0 && (prev.f == nil || key.f == nil):
		// The next frame's front reads both.
		d.Fail("%w: %d frames processed but no previous or no key frame", ErrFrameTable, sys.frameCount)
	case prev.f != nil && prev.pos != sys.frameCount-1:
		d.Fail("%w: the previous frame is at position %d of %d frames processed", ErrFrameTable, prev.pos, sys.frameCount)
	}

	copy(sys.chain[:], d.Take(len(sys.chain)))
	decodeMoments(d, &sys.ate)
	sys.ate.N = sys.frameCount
	if d.Bool() && d.Err() == nil {
		// The last frame's tail, pending, with its record: its frame is the
		// previous frame, and the moments have yet to count it.
		if sys.frameCount == 0 {
			d.Fail("pending mapping tail with 0 frames processed")
		} else {
			sys.tail = sys.newTail(sys.prevFrame, decodeRecord(d))
			sys.tail.restored = true
			sys.ate.N--
		}
	}

	var st mapper.State
	st.Cloud = decodeCloud(d)
	st.SkipSet = d.Bools()
	st.Keyframes = make([]mapper.Keyframe, d.Len(8))
	for i := range st.Keyframes {
		kf := deref(d, table, d.I64())
		if kf.f == nil && d.Err() == nil {
			d.Fail("%w: key-frame window entry %d names no frame", ErrFrameTable, i)
		}
		st.Keyframes[i] = mapper.Keyframe{Frame: kf.f, Pos: kf.pos, Pose: getPose(d)}
	}
	st.RNG = d.U64()
	st.Opt = make([]mapper.OptGroupState, d.Len(8))
	for i := range st.Opt {
		st.Opt[i].Name = d.Str()
		st.Opt[i].Step = int(d.I64())
		st.Opt[i].M = d.F64s()
		st.Opt[i].V = d.F64s()
	}
	if d.Err() != nil {
		return nil
	}
	if err := sys.mapper.ImportState(st); err != nil {
		d.Fail("mapper state: %w", err)
		return nil
	}
	return sys
}

// retained is one entry of the frame table: the stream's frame at position
// pos. A stream has one frame per position, so the position identifies it.
type retained struct {
	pos int
	f   *frame.Frame
}

// frameEntryMin is the fewest bytes a frame table entry encodes to: its
// position and a zero body length.
const frameEntryMin = 16

// collectFrames gathers the retained frames in a deterministic order:
// mapper keyframes first (stream order), then the previous and key frames if
// distinct.
func collectFrames(s *System, st mapper.State) []retained {
	table := make([]retained, 0, len(st.Keyframes)+2)
	add := func(f *frame.Frame, pos int) {
		if f != nil && frameRef(table, f, pos) < 0 {
			table = append(table, retained{pos, f})
		}
	}
	for _, kf := range st.Keyframes {
		add(kf.Frame, kf.Pos)
	}
	add(s.prevFrame, s.frameCount-1)
	add(s.keyFrame, s.keyFramePos)
	return table
}

// frameRef returns the table index of f, the frame at position pos: -1 for no
// frame (a system that has processed none) or one the table does not list.
func frameRef(table []retained, f *frame.Frame, pos int) int64 {
	if f == nil {
		return -1
	}
	return int64(slices.IndexFunc(table, func(r retained) bool { return r.pos == pos }))
}

func deref(d *binfmt.Dec, table []retained, ref int64) retained {
	if ref == -1 {
		return retained{}
	}
	if ref < 0 || ref >= int64(len(table)) {
		d.Fail("frame reference %d out of range (table has %d)", ref, len(table))
		return retained{}
	}
	return table[ref]
}

// decodeFrameTable reads the frame table of a system that has processed
// frameCount frames through a camera intr, taking each body-less entry's frame
// from held. The table and the held list both arrive from outside, so every
// way they can fail to fit each other or the camera is refused here, wrapped
// in ErrFrameTable, and no frame reaches the pipeline unchecked.
func decodeFrameTable(d *binfmt.Dec, held []HeldFrame, frameCount int, intr *camera.Intrinsics) []retained {
	table := make([]retained, d.Len(frameEntryMin))
	if len(held) > len(table) {
		d.Fail("%w: %d frames supplied for a table of %d", ErrFrameTable, len(held), len(table))
		return nil
	}
	supplied := make(map[int]*frame.Frame, len(held))
	for _, h := range held {
		if _, dup := supplied[h.Pos]; dup || h.Frame == nil {
			d.Fail("%w: position %d supplied twice, or with no frame", ErrFrameTable, h.Pos)
			return nil
		}
		supplied[h.Pos] = h.Frame
	}
	listed := make(map[int]bool, len(table))
	for i := range table {
		pos, body := int(d.I64()), d.Bytes()
		if d.Err() != nil {
			return nil
		}
		var f *frame.Frame
		switch {
		case pos < 0 || pos >= frameCount:
			d.Fail("%w: position %d is not one of the %d frames processed", ErrFrameTable, pos, frameCount)
		case listed[pos]:
			d.Fail("%w: position %d listed twice", ErrFrameTable, pos)
		case len(body) > 0:
			var err error
			if f, err = DecodeFrame(body); err != nil {
				d.Fail("%w: position %d: %w", ErrFrameTable, pos, err)
			}
		case supplied[pos] == nil:
			d.Fail("%w: the frame at position %d has no body and was not supplied", ErrFrameTable, pos)
		default:
			f = supplied[pos]
			delete(supplied, pos)
		}
		if d.Err() != nil {
			return nil
		}
		if err := checkFrame(f, intr); err != nil {
			d.Fail("%w: position %d: %w", ErrFrameTable, pos, err)
			return nil
		}
		listed[pos] = true
		table[i] = retained{pos, f}
	}
	for _, h := range held {
		if supplied[h.Pos] != nil {
			d.Fail("%w: a frame was supplied for position %d, which the snapshot does not ask for", ErrFrameTable, h.Pos)
			return nil
		}
	}
	return table
}

func encodeConfig(e *binfmt.Enc, c *Config) {
	e.Bool(c.EnableMAT)
	e.Bool(c.EnableGCM)
	e.Bool(c.ForceCoarseOnly)
	e.I64(int64(c.TrackIters))
	e.I64(int64(c.IterT))
	e.F64(c.ThreshM)
	encodeMapperConfig(e, &c.Mapper)
	e.F64(c.TrackLR)
	e.I64(int64(c.KeyframeEvery))
	e.Bool(c.EvalFPRate)
}

func decodeConfig(d *binfmt.Dec, c *Config) {
	c.EnableMAT = d.Bool()
	c.EnableGCM = d.Bool()
	c.ForceCoarseOnly = d.Bool()
	c.TrackIters = int(d.I64())
	c.IterT = int(d.I64())
	c.ThreshM = d.F64()
	decodeMapperConfig(d, &c.Mapper)
	c.TrackLR = d.F64()
	c.KeyframeEvery = int(d.I64())
	c.EvalFPRate = d.Bool()
}

func encodeMapperConfig(e *binfmt.Enc, c *mapper.Config) {
	e.I64(int64(c.MapIters))
	e.I64(int64(c.ThreshN))
	e.I64(int64(c.DensifyStride))
	e.I64(int64(c.KeyframeWindow))
}

func decodeMapperConfig(d *binfmt.Dec, c *mapper.Config) {
	c.MapIters = int(d.I64())
	c.ThreshN = int(d.I64())
	c.DensifyStride = int(d.I64())
	c.KeyframeWindow = int(d.I64())
}

func encodeIntrinsics(e *binfmt.Enc, in *camera.Intrinsics) {
	e.F64(in.Fx)
	e.F64(in.Fy)
	e.F64(in.Cx)
	e.F64(in.Cy)
	e.I64(int64(in.W))
	e.I64(int64(in.H))
}

func decodeIntrinsics(d *binfmt.Dec, in *camera.Intrinsics) {
	in.Fx = d.F64()
	in.Fy = d.F64()
	in.Cx = d.F64()
	in.Cy = d.F64()
	in.W = int(d.I64())
	in.H = int(d.I64())
}

func encodeFrame(e *binfmt.Enc, f *frame.Frame) {
	e.I64(int64(f.Index))
	putPose(e, f.GTPose)
	e.I64(int64(f.Color.W))
	e.I64(int64(f.Color.H))
	for _, p := range f.Color.Pix {
		putVec3(e, p)
	}
	e.F64s(f.Depth.D)
}

func decodeFrame(d *binfmt.Dec) *frame.Frame {
	f := &frame.Frame{}
	f.Index = int(d.I64())
	f.GTPose = getPose(d)
	w, h := d.I64(), d.I64()
	// Area is zero once the cursor has failed, and for a w x h the payload
	// cannot hold, so the allocation below is bounded by the bytes present.
	img := &frame.Image{W: int(w), H: int(h), Pix: make([]vecmath.Vec3, d.Area(w, h, 3*8))}
	for i := range img.Pix {
		img.Pix[i] = getVec3(d)
	}
	f.Color = img
	f.Depth = &frame.DepthMap{W: img.W, H: img.H, D: d.F64s()}
	return f
}

// encodeRecord writes a frame's record, its trace as the scalars (the
// representative-iteration detail stays behind): how a snapshot carries its
// pending tail's, and what System.fold hashes into the chain.
func encodeRecord(e *binfmt.Enc, r *record) {
	putPose(e, r.pose)
	putPose(e, r.gt)
	ft := &r.ft
	e.F64(ft.Covisibility)
	e.F64(ft.KeyCovisibility)
	e.Bool(ft.IsKeyFrame)
	e.Bool(ft.CoarseOnly)
	e.I64(ft.CodecSADOps)
	e.I64(ft.CoarseMACs)
	encodeStats(e, &ft.Track)
	encodeStats(e, &ft.Map)
	e.I64(int64(ft.NumGaussians))
	e.I64(int64(ft.SkippedGaussians))
	e.F64(ft.FPRate)
	e.Bool(ft.FPValid)
}

func decodeRecord(d *binfmt.Dec) record {
	r := record{pose: getPose(d), gt: getPose(d)}
	ft := &r.ft
	ft.Covisibility = d.F64()
	ft.KeyCovisibility = d.F64()
	ft.IsKeyFrame = d.Bool()
	ft.CoarseOnly = d.Bool()
	ft.CodecSADOps = d.I64()
	ft.CoarseMACs = d.I64()
	decodeStats(d, &ft.Track)
	decodeStats(d, &ft.Map)
	ft.NumGaussians = int(d.I64())
	ft.SkippedGaussians = int(d.I64())
	ft.FPRate = d.F64()
	ft.FPValid = d.Bool()
	return r
}

// encodeMoments writes the ATE moments but their count, which a snapshot's
// frame count implies.
func encodeMoments(e *binfmt.Enc, m *metrics.ATEMoments) {
	putVec3(e, m.OriginEst)
	putVec3(e, m.OriginGT)
	putVec3(e, m.SumEst)
	putVec3(e, m.SumGT)
	for _, v := range m.Cross {
		e.F64(v)
	}
	e.F64(m.SqEst)
	e.F64(m.SqGT)
}

func decodeMoments(d *binfmt.Dec, m *metrics.ATEMoments) {
	m.OriginEst, m.OriginGT = getVec3(d), getVec3(d)
	m.SumEst, m.SumGT = getVec3(d), getVec3(d)
	for i := range m.Cross {
		m.Cross[i] = d.F64()
	}
	m.SqEst = d.F64()
	m.SqGT = d.F64()
}

// encodeStats writes one task's scalars. The representative-iteration detail
// stays behind (since version 8): it is what an offline run hands the hardware
// models, and a restored system records it again from its first new frame on.
func encodeStats(e *binfmt.Enc, s *trace.RenderStats) {
	e.I64(int64(s.Iters))
	e.I64(s.AlphaOps)
	e.I64(s.BlendOps)
	e.I64(s.BackwardOps)
	e.I64(s.Splats)
	e.I64(s.TileEntries)
	e.I64(s.Pixels)
}

func decodeStats(d *binfmt.Dec, s *trace.RenderStats) {
	s.Iters = int(d.I64())
	s.AlphaOps = d.I64()
	s.BlendOps = d.I64()
	s.BackwardOps = d.I64()
	s.Splats = d.I64()
	s.TileEntries = d.I64()
	s.Pixels = d.I64()
}

func encodeCloud(e *binfmt.Enc, c *gauss.Cloud) {
	e.U64(uint64(len(c.Gaussians)))
	for i := range c.Gaussians {
		encodeGaussian(e, &c.Gaussians[i])
	}
}

// encodeGaussian writes a Gaussian's eight parameters, as a snapshot's map and
// Result.Digest hold them.
func encodeGaussian(e *binfmt.Enc, g *gauss.Gaussian) {
	putVec3(e, g.Mean)
	e.F64(g.LogScale)
	putVec3(e, g.Color)
	e.F64(g.Logit)
}

func decodeCloud(d *binfmt.Dec) *gauss.Cloud {
	n := d.Len(8 * 8)
	gaussians := make([]gauss.Gaussian, n)
	for i := range gaussians {
		g := &gaussians[i]
		g.Mean = getVec3(d)
		g.LogScale = d.F64()
		g.Color = getVec3(d)
		g.Logit = d.F64()
	}
	c := &gauss.Cloud{}
	c.SetAll(gaussians)
	return c
}

// The geometry encodings shared by the snapshot fields above.

func putVec3(e *binfmt.Enc, v vecmath.Vec3) {
	e.F64(v.X)
	e.F64(v.Y)
	e.F64(v.Z)
}

func getVec3(d *binfmt.Dec) vecmath.Vec3 {
	return vecmath.Vec3{X: d.F64(), Y: d.F64(), Z: d.F64()}
}

func putPose(e *binfmt.Enc, p vecmath.Pose) {
	e.F64(p.R.W)
	e.F64(p.R.X)
	e.F64(p.R.Y)
	e.F64(p.R.Z)
	putVec3(e, p.T)
}

func getPose(d *binfmt.Dec) vecmath.Pose {
	var p vecmath.Pose
	p.R.W = d.F64()
	p.R.X = d.F64()
	p.R.Y = d.F64()
	p.R.Z = d.F64()
	p.T = getVec3(d)
	return p
}
