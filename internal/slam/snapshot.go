package slam

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ags/internal/camera"
	"ags/internal/covis"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/mapper"
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
const (
	snapshotMagic = "AGSSNAP\x00"
	// SnapshotVersion is the binary format revision Snapshot writes and
	// Restore accepts.
	SnapshotVersion = 1
)

// Snapshot serializes the system's complete inter-frame state — configuration,
// camera, pose track, keyframe set, the (compacted) Gaussian map, optimizer
// moments, the mapper's RNG, and the retained per-frame traces — so that a
// system restored from it and fed the remaining frames produces a Result
// digest-identical to the uninterrupted run. Call it between ProcessFrame
// calls (it reads the same state ProcessFrame writes). In-flight ME prefetch
// jobs are deliberately not captured: the prefetch contract makes the
// synchronous recompute byte-identical, so a restored system simply computes
// the next frame's covisibility inline.
func (s *System) Snapshot(w io.Writer) error {
	if _, err := w.Write(s.encodeSnapshot()); err != nil {
		return fmt.Errorf("slam: snapshot write: %w", err)
	}
	return nil
}

// encodeSnapshot returns the framed snapshot bytes. A counting pass sizes the
// buffer exactly first: a snapshot is megabytes of 4- and 8-byte appends, and
// growing the buffer through them re-allocated and copied more bytes than
// the snapshot itself holds.
func (s *System) encodeSnapshot() []byte {
	size := &snapEnc{counting: true}
	encodeSystem(size, s)
	hdr := len(snapshotMagic) + 4
	e := &snapEnc{buf: make([]byte, 0, hdr+size.n+sha256.Size)}
	e.raw([]byte(snapshotMagic))
	e.u32(SnapshotVersion)
	encodeSystem(e, s)
	sum := sha256.Sum256(e.buf)
	e.raw(sum[:])
	return e.buf
}

// Restore rebuilds a standalone System from a snapshot stream. The system
// draws its render context from DefaultServer's pool, exactly like New;
// FrameCount tells the caller which frame to push next. Multi-tenant hosts
// restore into a session via (*Server).RestoreSession instead.
func Restore(r io.Reader) (*System, error) {
	return restoreSystem(r, DefaultServer().ContextPool(), false)
}

// restoreSystem decodes a snapshot over the given context pool. perStep
// selects session mode, as in newSystem.
func restoreSystem(r io.Reader, pool *splat.ContextPool, perStep bool) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("slam: snapshot read: %w", err)
	}
	hdr := len(snapshotMagic) + 4
	if len(data) < hdr+sha256.Size {
		return nil, fmt.Errorf("slam: snapshot truncated: %d bytes", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("slam: not a snapshot (bad magic)")
	}
	version := binary.LittleEndian.Uint32(data[len(snapshotMagic):hdr])
	if version != SnapshotVersion {
		return nil, fmt.Errorf("slam: snapshot version %d, this build reads %d", version, SnapshotVersion)
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); string(got[:]) != string(sum) {
		return nil, fmt.Errorf("slam: snapshot checksum mismatch (truncated or corrupted)")
	}
	d := &snapDec{b: body[hdr:]}
	sys := decodeSystem(d, pool, perStep)
	if d.err != nil {
		return nil, fmt.Errorf("slam: snapshot decode: %w", d.err)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("slam: snapshot decode: %d trailing bytes", len(d.b)-d.off)
	}
	return sys, nil
}

// encodeSystem writes every field a restored system needs. The tracker
// (refiner, aligner) and covisibility detector carry no cross-frame state
// that outputs depend on — they are rebuilt from the config.
func encodeSystem(e *snapEnc, s *System) {
	encodeConfig(e, &s.Cfg)
	encodeIntrinsics(e, &s.Intr)
	e.i64(int64(s.frameCount))
	e.pose(s.prevPose)
	e.pose(s.prevRel)
	e.pose(s.keyPose)

	// Frame table: the retained frames, deduplicated by identity — the
	// previous frame, the key frame and the mapper's keyframe window may
	// alias, and the restored system must alias them the same way.
	st := s.mapper.ExportState()
	frames, index := collectFrames(s, st)
	e.u64(uint64(len(frames)))
	for _, f := range frames {
		encodeFrame(e, f)
	}
	e.i64(frameRef(index, s.prevFrame))
	e.i64(frameRef(index, s.keyFrame))

	e.poses(s.poses)
	e.poses(s.gt)
	e.u64(uint64(len(s.info)))
	for i := range s.info {
		encodeInfo(e, &s.info[i])
	}
	e.u64(uint64(len(s.traceFrames)))
	for i := range s.traceFrames {
		encodeTrace(e, &s.traceFrames[i])
	}

	// Mapper state: cloud, contribution tables, keyframe window (as frame
	// table references), RNG and optimizer moments.
	encodeCloud(e, st.Cloud)
	e.i32s(st.NonContrib)
	e.i32s(st.Contrib)
	e.bools(st.SkipSet)
	e.u64(uint64(len(st.Keyframes)))
	for _, kf := range st.Keyframes {
		e.i64(frameRef(index, kf.Frame))
		e.pose(kf.Pose)
	}
	e.u64(st.RNG)
	e.u64(uint64(len(st.Opt)))
	for _, g := range st.Opt {
		e.str(g.Name)
		e.i64(int64(g.Step))
		e.f64s(g.M)
		e.f64s(g.V)
	}
}

func decodeSystem(d *snapDec, pool *splat.ContextPool, perStep bool) *System {
	var cfg Config
	decodeConfig(d, &cfg)
	var intr camera.Intrinsics
	decodeIntrinsics(d, &intr)
	if d.err != nil {
		return nil
	}
	sys := newSystem(cfg, intr, pool, perStep)
	sys.frameCount = int(d.i64())
	sys.prevPose = d.pose()
	sys.prevRel = d.pose()
	sys.keyPose = d.pose()

	frames := make([]*frame.Frame, d.sliceLen(1))
	for i := range frames {
		frames[i] = decodeFrame(d)
	}
	sys.prevFrame = deref(d, frames, d.i64())
	sys.keyFrame = deref(d, frames, d.i64())

	sys.poses = d.poses()
	sys.gt = d.poses()
	sys.info = make([]FrameInfo, d.sliceLen(8))
	for i := range sys.info {
		decodeInfo(d, &sys.info[i])
	}
	sys.traceFrames = make([]trace.FrameTrace, d.sliceLen(8))
	for i := range sys.traceFrames {
		decodeTrace(d, &sys.traceFrames[i])
	}

	var st mapper.State
	st.Cloud = decodeCloud(d)
	st.NonContrib = d.i32s()
	st.Contrib = d.i32s()
	st.SkipSet = d.bools()
	st.Keyframes = make([]mapper.Keyframe, d.sliceLen(8))
	for i := range st.Keyframes {
		st.Keyframes[i].Frame = deref(d, frames, d.i64())
		st.Keyframes[i].Pose = d.pose()
	}
	st.RNG = d.u64()
	st.Opt = make([]mapper.OptGroupState, d.sliceLen(8))
	for i := range st.Opt {
		st.Opt[i].Name = d.str()
		st.Opt[i].Step = int(d.i64())
		st.Opt[i].M = d.f64s()
		st.Opt[i].V = d.f64s()
	}
	if d.err != nil {
		return nil
	}
	if err := sys.mapper.ImportState(st); err != nil {
		d.fail("mapper state: %v", err)
		return nil
	}
	return sys
}

// collectFrames gathers the retained frames in a deterministic order:
// mapper keyframes first (stream order), then the previous and key frames if
// distinct.
func collectFrames(s *System, st mapper.State) ([]*frame.Frame, map[*frame.Frame]int) {
	index := make(map[*frame.Frame]int)
	var frames []*frame.Frame
	add := func(f *frame.Frame) {
		if f == nil {
			return
		}
		if _, ok := index[f]; !ok {
			index[f] = len(frames)
			frames = append(frames, f)
		}
	}
	for _, kf := range st.Keyframes {
		add(kf.Frame)
	}
	add(s.prevFrame)
	add(s.keyFrame)
	return frames, index
}

func frameRef(index map[*frame.Frame]int, f *frame.Frame) int64 {
	if f == nil {
		return -1
	}
	return int64(index[f])
}

func deref(d *snapDec, frames []*frame.Frame, ref int64) *frame.Frame {
	if ref == -1 {
		return nil
	}
	if ref < 0 || ref >= int64(len(frames)) {
		d.fail("frame reference %d out of range (table has %d)", ref, len(frames))
		return nil
	}
	return frames[ref]
}

func encodeConfig(e *snapEnc, c *Config) {
	e.boolv(c.EnableMAT)
	e.boolv(c.EnableGCM)
	e.boolv(c.ForceCoarseOnly)
	e.i64(int64(c.TrackIters))
	e.i64(int64(c.IterT))
	e.f64(c.ThreshT)
	e.f64(c.ThreshM)
	e.i64(int64(c.Backbone))
	encodeMapperConfig(e, &c.Mapper)
	e.f64(c.TrackLR)
	e.i64(int64(c.KeyframeEvery))
	e.i64(int64(c.PruneEvery))
	e.i64(int64(c.CompactEvery))
	e.f64(c.CompactInactiveFrac)
	e.i64(int64(c.Workers))
	e.boolv(c.NoRenderCtx)
	e.boolv(c.EvalFPRate)
	e.boolv(c.PipelineME)
	e.i64(int64(c.CodecWorkers))
	e.boolv(c.CodecEarlyTerm)
}

func decodeConfig(d *snapDec, c *Config) {
	c.EnableMAT = d.boolv()
	c.EnableGCM = d.boolv()
	c.ForceCoarseOnly = d.boolv()
	c.TrackIters = int(d.i64())
	c.IterT = int(d.i64())
	c.ThreshT = d.f64()
	c.ThreshM = d.f64()
	c.Backbone = Backbone(d.i64())
	decodeMapperConfig(d, &c.Mapper)
	c.TrackLR = d.f64()
	c.KeyframeEvery = int(d.i64())
	c.PruneEvery = int(d.i64())
	c.CompactEvery = int(d.i64())
	c.CompactInactiveFrac = d.f64()
	c.Workers = int(d.i64())
	c.NoRenderCtx = d.boolv()
	c.EvalFPRate = d.boolv()
	c.PipelineME = d.boolv()
	c.CodecWorkers = int(d.i64())
	c.CodecEarlyTerm = d.boolv()
}

func encodeMapperConfig(e *snapEnc, c *mapper.Config) {
	e.i64(int64(c.MapIters))
	e.f64(c.ThreshAlpha)
	e.i64(int64(c.ThreshN))
	e.i64(int64(c.ContribPixMax))
	e.i64(int64(c.DensifyStride))
	e.f64(c.SilThreshold)
	e.f64(c.DepthErrThresh)
	e.f64(c.PruneOpacity)
	e.f64(c.LRMean)
	e.f64(c.LRColor)
	e.f64(c.LRLogit)
	e.f64(c.LRScale)
	e.i64(int64(c.KeyframeWindow))
	e.i64(int64(c.Workers))
	e.i64(c.Seed)
}

func decodeMapperConfig(d *snapDec, c *mapper.Config) {
	c.MapIters = int(d.i64())
	c.ThreshAlpha = d.f64()
	c.ThreshN = int(d.i64())
	c.ContribPixMax = int(d.i64())
	c.DensifyStride = int(d.i64())
	c.SilThreshold = d.f64()
	c.DepthErrThresh = d.f64()
	c.PruneOpacity = d.f64()
	c.LRMean = d.f64()
	c.LRColor = d.f64()
	c.LRLogit = d.f64()
	c.LRScale = d.f64()
	c.KeyframeWindow = int(d.i64())
	c.Workers = int(d.i64())
	c.Seed = d.i64()
}

func encodeIntrinsics(e *snapEnc, in *camera.Intrinsics) {
	e.f64(in.Fx)
	e.f64(in.Fy)
	e.f64(in.Cx)
	e.f64(in.Cy)
	e.i64(int64(in.W))
	e.i64(int64(in.H))
}

func decodeIntrinsics(d *snapDec, in *camera.Intrinsics) {
	in.Fx = d.f64()
	in.Fy = d.f64()
	in.Cx = d.f64()
	in.Cy = d.f64()
	in.W = int(d.i64())
	in.H = int(d.i64())
}

func encodeFrame(e *snapEnc, f *frame.Frame) {
	e.i64(int64(f.Index))
	e.pose(f.GTPose)
	e.i64(int64(f.Color.W))
	e.i64(int64(f.Color.H))
	for _, p := range f.Color.Pix {
		e.vec3(p)
	}
	e.f64s(f.Depth.D)
}

func decodeFrame(d *snapDec) *frame.Frame {
	f := &frame.Frame{}
	f.Index = int(d.i64())
	f.GTPose = d.pose()
	w, h := int(d.i64()), int(d.i64())
	if d.err != nil {
		return f
	}
	if w < 0 || h < 0 || w*h > d.remaining()/24 {
		d.fail("frame size %dx%d exceeds snapshot payload", w, h)
		return f
	}
	img := &frame.Image{W: w, H: h, Pix: make([]vecmath.Vec3, w*h)}
	for i := range img.Pix {
		img.Pix[i] = d.vec3()
	}
	f.Color = img
	f.Depth = &frame.DepthMap{W: w, H: h, D: d.f64s()}
	return f
}

func encodeInfo(e *snapEnc, in *FrameInfo) {
	e.f64(float64(in.Covisibility))
	e.f64(float64(in.KeyCovisibility))
	e.boolv(in.IsKeyFrame)
	e.boolv(in.CoarseOnly)
	e.i64(int64(in.RefineIters))
	e.f64(in.FPRate)
	e.boolv(in.FPValid)
}

func decodeInfo(d *snapDec, in *FrameInfo) {
	in.Covisibility = covis.Score(d.f64())
	in.KeyCovisibility = covis.Score(d.f64())
	in.IsKeyFrame = d.boolv()
	in.CoarseOnly = d.boolv()
	in.RefineIters = int(d.i64())
	in.FPRate = d.f64()
	in.FPValid = d.boolv()
}

func encodeTrace(e *snapEnc, ft *trace.FrameTrace) {
	e.i64(int64(ft.Index))
	e.f64(ft.Covisibility)
	e.boolv(ft.IsKeyFrame)
	e.boolv(ft.CoarseOnly)
	e.i64(ft.CodecSADOps)
	e.i64(ft.CoarseMACs)
	encodeStats(e, &ft.Track)
	encodeStats(e, &ft.Map)
	e.i64(int64(ft.NumGaussians))
	e.i64(int64(ft.SkippedGaussians))
	e.i64(int64(ft.PrunedGaussians))
	e.i64(int64(ft.CompactedSlots))
	e.i64(ft.ReclaimedBytes)
	// LoggingIDs aliases Map.RepTileLists on key frames; preserve the aliasing
	// so a restored trace compacts (remaps) exactly like the original.
	aliased := len(ft.LoggingIDs) > 0 && len(ft.Map.RepTileLists) > 0 &&
		&ft.LoggingIDs[0] == &ft.Map.RepTileLists[0]
	e.boolv(aliased)
	if !aliased {
		e.idLists(ft.LoggingIDs)
	}
}

func decodeTrace(d *snapDec, ft *trace.FrameTrace) {
	ft.Index = int(d.i64())
	ft.Covisibility = d.f64()
	ft.IsKeyFrame = d.boolv()
	ft.CoarseOnly = d.boolv()
	ft.CodecSADOps = d.i64()
	ft.CoarseMACs = d.i64()
	decodeStats(d, &ft.Track)
	decodeStats(d, &ft.Map)
	ft.NumGaussians = int(d.i64())
	ft.SkippedGaussians = int(d.i64())
	ft.PrunedGaussians = int(d.i64())
	ft.CompactedSlots = int(d.i64())
	ft.ReclaimedBytes = d.i64()
	if d.boolv() {
		ft.LoggingIDs = ft.Map.RepTileLists
	} else {
		ft.LoggingIDs = d.idLists()
	}
}

func encodeStats(e *snapEnc, s *trace.RenderStats) {
	e.i64(int64(s.Iters))
	e.i64(s.AlphaOps)
	e.i64(s.BlendOps)
	e.i64(s.BackwardOps)
	e.i64(s.Splats)
	e.i64(s.TileEntries)
	e.i64(s.Pixels)
	e.i32s(s.RepPerPixelBlend)
	e.i32s(s.RepPerPixelAlpha)
	e.idLists(s.RepTileLists)
	e.i64(int64(s.Width))
	e.i64(int64(s.Height))
}

func decodeStats(d *snapDec, s *trace.RenderStats) {
	s.Iters = int(d.i64())
	s.AlphaOps = d.i64()
	s.BlendOps = d.i64()
	s.BackwardOps = d.i64()
	s.Splats = d.i64()
	s.TileEntries = d.i64()
	s.Pixels = d.i64()
	s.RepPerPixelBlend = d.i32s()
	s.RepPerPixelAlpha = d.i32s()
	s.RepTileLists = d.idLists()
	s.Width = int(d.i64())
	s.Height = int(d.i64())
}

func encodeCloud(e *snapEnc, c *gauss.Cloud) {
	e.u64(uint64(len(c.Gaussians)))
	for i := range c.Gaussians {
		g := &c.Gaussians[i]
		e.vec3(g.Mean)
		e.vec3(g.LogScale)
		e.f64(g.Rot.W)
		e.f64(g.Rot.X)
		e.f64(g.Rot.Y)
		e.f64(g.Rot.Z)
		e.vec3(g.Color)
		e.f64(g.Logit)
	}
	e.bools(c.Active)
}

func decodeCloud(d *snapDec) *gauss.Cloud {
	n := d.sliceLen(14 * 8)
	gaussians := make([]gauss.Gaussian, n)
	for i := range gaussians {
		g := &gaussians[i]
		g.Mean = d.vec3()
		g.LogScale = d.vec3()
		g.Rot.W = d.f64()
		g.Rot.X = d.f64()
		g.Rot.Y = d.f64()
		g.Rot.Z = d.f64()
		g.Color = d.vec3()
		g.Logit = d.f64()
	}
	active := d.bools()
	c := &gauss.Cloud{}
	if err := c.SetAll(gaussians, active); err != nil {
		d.fail("cloud: %v", err)
	}
	return c
}

// snapEnc accumulates the little-endian payload in memory (the trailing
// checksum needs the whole byte stream anyway). In counting mode it writes
// nothing and only adds up in n the bytes the same calls would append.
type snapEnc struct {
	buf      []byte
	counting bool
	n        int
}

func (e *snapEnc) raw(b []byte) {
	if e.counting {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

func (e *snapEnc) u32(v uint32) {
	if e.counting {
		e.n += 4
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *snapEnc) u64(v uint64) {
	if e.counting {
		e.n += 8
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *snapEnc) i64(v int64)   { e.u64(uint64(v)) }
func (e *snapEnc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *snapEnc) boolv(b bool) {
	switch {
	case e.counting:
		e.n++
	case b:
		e.buf = append(e.buf, 1)
	default:
		e.buf = append(e.buf, 0)
	}
}

func (e *snapEnc) str(s string) {
	e.u64(uint64(len(s)))
	e.raw([]byte(s))
}

func (e *snapEnc) f64s(s []float64) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.f64(v)
	}
}

func (e *snapEnc) i32s(s []int32) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.u32(uint32(v))
	}
}

func (e *snapEnc) bools(s []bool) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.boolv(v)
	}
}

func (e *snapEnc) idLists(lists [][]int32) {
	e.u64(uint64(len(lists)))
	for _, l := range lists {
		e.i32s(l)
	}
}

func (e *snapEnc) vec3(v vecmath.Vec3) {
	e.f64(v.X)
	e.f64(v.Y)
	e.f64(v.Z)
}

func (e *snapEnc) pose(p vecmath.Pose) {
	e.f64(p.R.W)
	e.f64(p.R.X)
	e.f64(p.R.Y)
	e.f64(p.R.Z)
	e.vec3(p.T)
}

func (e *snapEnc) poses(ps []vecmath.Pose) {
	e.u64(uint64(len(ps)))
	for _, p := range ps {
		e.pose(p)
	}
}

// snapDec is the sticky-error cursor over a checksum-verified payload. Every
// read bounds-checks; the first failure latches and subsequent reads return
// zero values, so decode call sites stay linear.
type snapDec struct {
	b   []byte
	off int
	err error
}

func (d *snapDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *snapDec) remaining() int { return len(d.b) - d.off }

func (d *snapDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.fail("payload exhausted at offset %d (need %d bytes, have %d)", d.off, n, d.remaining())
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *snapDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *snapDec) i64() int64   { return int64(d.u64()) }
func (d *snapDec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *snapDec) boolv() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// sliceLen reads a length prefix and sanity-checks it against the remaining
// payload (unit = minimum encoded bytes per element), so a logic mismatch
// between encoder and decoder fails with an error instead of a huge make.
func (d *snapDec) sliceLen(unit int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if unit < 1 {
		unit = 1
	}
	if n > uint64(d.remaining()/unit) {
		d.fail("length %d exceeds remaining payload (%d bytes)", n, d.remaining())
		return 0
	}
	return int(n)
}

func (d *snapDec) str() string {
	n := d.sliceLen(1)
	return string(d.take(n))
}

func (d *snapDec) f64s() []float64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *snapDec) i32s() []int32 {
	n := d.sliceLen(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.u32())
	}
	return out
}

func (d *snapDec) bools() []bool {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.boolv()
	}
	return out
}

func (d *snapDec) idLists() [][]int32 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([][]int32, n)
	for i := range out {
		out[i] = d.i32s()
	}
	return out
}

func (d *snapDec) vec3() vecmath.Vec3 {
	return vecmath.Vec3{X: d.f64(), Y: d.f64(), Z: d.f64()}
}

func (d *snapDec) pose() vecmath.Pose {
	var p vecmath.Pose
	p.R.W = d.f64()
	p.R.X = d.f64()
	p.R.Y = d.f64()
	p.R.Z = d.f64()
	p.T = d.vec3()
	return p
}

func (d *snapDec) poses() []vecmath.Pose {
	n := d.sliceLen(7 * 8)
	if n == 0 {
		return nil
	}
	out := make([]vecmath.Pose, n)
	for i := range out {
		out[i] = d.pose()
	}
	return out
}
