// Package slam assembles the full 3DGS-SLAM pipeline: the SplaTAM-style
// baseline (N_T tracking iterations + full mapping on every frame) and the
// AGS algorithm (CODEC-based frame covisibility detection, movement-adaptive
// tracking, Gaussian contribution-aware mapping), streaming frames exactly as
// the paper's Fig. 9 walk-through describes. The two AGS features are
// individually switchable so the ablation of Fig. 18 and the Droid+SplaTAM
// comparison of Table 4 come from the same pipeline.
//
// Serving: the public surface is streaming and multi-tenant. A Server owns
// the per-host resources (a bounded splat.ContextPool) and opens Sessions —
// one live sequence each, driven by Push on its producer's goroutine and
// finalized by Close, whose Result is the session's output. System remains
// the single-stream engine underneath, and Run is a thin wrapper that streams
// a whole scene.Sequence through one session on DefaultServer. Concurrent
// sessions produce Results digest-identical to sequential runs at every
// GOMAXPROCS and interleaving (Result.Digest asserts it cheaply).
//
// Venues: where a system runs is decided once, when it is built, and never by
// an option. It decides one thing: the per-frame history. Every venue folds
// each frame's record (poses, decisions and trace scalars: op totals, map
// size) into a hash chain and ATE moments when its mapping tail joins; an
// offline venue also keeps the records, with, for the cycle-level hardware
// models, the representative iteration's per-pixel planes, once for tracking
// and once for mapping, and the mapping task's tile lists
// (trace.RenderStats, each a trace.Packed: 11.4 KiB a frame on the
// benchmark's 64x48 Desk stream). Every venue renders alike: each splat pass
// runs on its caller, and a mapping tail's passes also on the producer that
// helps it (see Concurrency).
//
//   - New, Restore, Run and Server.Run are the offline venues. Their Results
//     feed hw/platform through internal/bench and ags-slam, so they keep every
//     frame's record with the detail of every task that ran an iteration
//     (Restore from its first new frame on: a snapshot carries the history
//     as its digest). A frame's detail is recorded once and never
//     rewritten: its tile lists name Gaussians of the map it rendered,
//     whatever a later prune renumbers.
//   - Server.Open and Server.RestoreSession are the serving venues, the only
//     ones a fleet node uses. Nothing on the serving path reads the per-frame
//     history, so they keep none and the tracker and mapper build no detail.
//     A session's resident state is the map (with its optimizer moments), the
//     key-frame window and the running digest: it follows the map, not the
//     stream's age.
//     A checkpoint or a migration is less still: the snapshot names the
//     window's frames by their stream positions and leaves out the bodies
//     its requester says it holds (see the frame table in snapshot.go),
//     which for a fleet router is all of them. A host's parallelism is its
//     sessions: a session's passes are shared only with its producer, which
//     helps its tail, and a tile's panic surfaces on the pass's caller, so
//     everything a session runs reaches its one recover (see Session).
//
// Every venue draws two render contexts from its server's pool for the length
// of a ProcessFrame (one to track the frame through, one for the previous
// frame's mapping beside it) and hands both back before the call returns: a
// pending tail holds none, so an idle session or standalone system pins no
// render state.
//
// Result.Digest covers the hash chain and the map, never the detail, so it is
// one value across all venues, and so is the ATE the moments solve. A
// snapshot holds what a stream needs to continue, which is the running
// digest and never the per-frame history, so a stream's snapshot at a frame
// is the same bytes in every venue, and what a restored system keeps from
// then on comes from the restoring venue.
//
// Concurrency: the paper's Fig. 9 runs frame t+1's covisibility detection and
// pose tracking on their own engines while the mapping engine finishes frame
// t. System.ProcessFrame runs that schedule: a frame's front (CODEC motion
// estimation against the previous frame, the covisibility comparison against
// the key frame, coarse alignment) and its pose refinement overlap the
// previous frame's mapping tail, which runs on one goroutine per system. The
// refinement reads no Gaussian the tail writes: it renders a copy of the map
// frozen into its tracking context before the tail starts, so frame t refines
// against the map as it stood before frame t-1's tail (frame 1, against the
// bootstrap map). Everything else that reads the map joins the tail first
// (see System). The tail is the longer side, so the producer helps it: once
// it is through tracking, its join takes tiles and chunks of the tail's
// passes (the system's splat.Crew, attached to the mapping context): the
// tiles of its render and train passes, and the chunks of the projection and
// the Adam step. It does so
// until the tail is done, rather than blocking, and the tail's passes run on
// both cores. Who takes which tile or chunk changes no output (see package
// splat). join always serves: a tail is started by the next ProcessFrame and
// joined by the same call, or, when no ProcessFrame started it (the first
// frame's bootstrap tail, which the second frame joins before it tracks,
// and the tail Finish, Close and Mapper join), started by the join itself.
// So no work of a system outlives the call that started it, and a session's
// Push is that call. The schedule is exact, not speculative: every
// input of a frame's tracking is committed or copied before the preceding
// tail starts, so poses, maps, traces and snapshots are a function of the
// frames alone, byte for byte, at any GOMAXPROCS, and on one processor it
// degenerates to running the stages one after another. It is the schedule
// platform.AGS's Pipelined option charges.
//
// CODEC motion estimation therefore runs in the front, once per comparison,
// and no option selects where or how it runs. The splat renderer's passes are
// deterministic whoever takes their tiles, so the producer's help never
// changes results — full-parallel runs are exact A/B comparable.
package slam

import (
	"crypto/sha256"
	"fmt"
	"runtime/debug"

	"ags/internal/binfmt"
	"ags/internal/camera"
	"ags/internal/covis"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/mapper"
	"ags/internal/metrics"
	"ags/internal/nnlite"
	"ags/internal/scene"
	"ags/internal/splat"
	"ags/internal/tracker"
	"ags/internal/vecmath"
)

// Config parameterizes one SLAM run.
type Config struct {
	// EnableMAT turns on movement-adaptive tracking (coarse pose estimation
	// + covisibility-gated refinement). Off = baseline N_T-iteration
	// tracking.
	EnableMAT bool
	// EnableGCM turns on Gaussian contribution-aware mapping (key/non-key
	// frames + selective mapping). Off = full mapping on every frame.
	EnableGCM bool
	// ForceCoarseOnly disables the fine-grained refinement entirely — the
	// "directly integrating SplaTAM with Droid-SLAM" comparison of Table 4.
	ForceCoarseOnly bool

	// TrackIters is N_T, the baseline tracking iterations per frame.
	TrackIters int
	// IterT is the refinement iteration count for low-covisibility frames.
	IterT int
	// ThreshT is the covisibility above which refinement is skipped (0.90).
	ThreshT float64
	// ThreshM is the covisibility (vs the last key frame) above which a
	// frame is a non-key frame. The paper uses 50% of its SAD scale; on this
	// reproduction's covisibility scale the equivalent operating point is
	// 0.75 (see README: threshold mapping).
	ThreshM float64

	Mapper  mapper.Config
	TrackLR float64
	// KeyframeEvery adds every k-th frame to the multi-view mapping window
	// on the baseline mapping path (0 = never).
	KeyframeEvery int
	// PruneEvery runs opacity pruning every k frames (0 = never). A prune
	// removes the Gaussians it prunes from the live map and filters the
	// mapper's ID-keyed rows (skip set, optimizer moments) through the
	// old→new remap (see mapper.Prune). Retained traces stay as recorded:
	// each frame's tile lists name IDs of the map that frame rendered.
	PruneEvery int
	// EvalFPRate runs an extra contribution-logged render on every non-key
	// frame to measure the false-positive rate of the skip prediction.
	EvalFPRate bool

	// Deprecated: ignored, and carried by no snapshot or OPEN message. It
	// remains only because benchmarks/workloads.go assigns it, and goes with
	// that assignment.
	PipelineME bool
	// Deprecated: ignored, and carried by no snapshot or OPEN message. It
	// remains only because benchmarks/workloads.go assigns it, and goes with
	// that assignment.
	CodecWorkers int
	// Deprecated: ignored, and carried by no snapshot or OPEN message: a
	// splat pass's participants are its caller and the producer that helps
	// its tail (see the package doc). It remains only because
	// benchmarks/workloads.go assigns it, and goes with that assignment.
	Workers int
}

// DefaultConfig returns the paper's hyper-parameters scaled to this
// reproduction (see README: threshold mapping): N_T 200→60, N_M 30→15,
// Iter_T 20→6, Thresh_T 90%, Thresh_M 50% (0.75 on the reproduction's
// covisibility scale) and Thresh_N 450, unscaled (mapper.DefaultConfig).
// Thresh_alpha is splat.MinAlpha, 1/255, in every run. No setting depends on
// the frame size w x h.
func DefaultConfig(w, h int) Config {
	return Config{
		TrackIters:    60,
		IterT:         6,
		ThreshT:       0.90,
		ThreshM:       0.75,
		Mapper:        mapper.DefaultConfig(),
		TrackLR:       5e-3,
		KeyframeEvery: 4,
		PruneEvery:    8,
	}
}

// AlgorithmConfig returns DefaultConfig with the switches of the named
// variant: "baseline" (SplaTAM-style: none), "ags" (MAT and GCM), "mat",
// "gcm" (one of the two, Fig. 18), or "droid" (coarse tracking only, the
// Droid+SplaTAM integration of Table 4). Any other name is refused with the
// list of names.
func AlgorithmConfig(name string) (Config, error) {
	cfg := DefaultConfig(0, 0)
	switch name {
	case "baseline":
	case "ags":
		cfg.EnableMAT, cfg.EnableGCM = true, true
	case "mat":
		cfg.EnableMAT = true
	case "gcm":
		cfg.EnableGCM = true
	case "droid":
		cfg.ForceCoarseOnly = true
	default:
		return Config{}, fmt.Errorf("algorithm %q is not one of baseline, ags, mat, gcm, droid", name)
	}
	return cfg, nil
}

// FrameInfo records per-frame algorithm decisions for analysis.
type FrameInfo struct {
	Covisibility    covis.Score // vs previous frame
	KeyCovisibility covis.Score // vs last key frame
	IsKeyFrame      bool
	CoarseOnly      bool
	RefineIters     int
	FPRate          float64 // only when EvalFPRate and non-key
	FPValid         bool
}

// Result is the output of a SLAM run. In every venue it holds the stream's
// frame count, its map and its history as a running digest (the hash chain
// Digest covers and the moments ATERMSECm solves). Poses, Info and
// Trace.Frames are the per-frame history, one entry per frame in stream
// order, which only an offline venue keeps (see the package doc): all of it
// from New, Run and Server.Run, the frames processed after the snapshot from
// Restore, none from a serving session.
type Result struct {
	Sequence string
	Frames   int
	Poses    []vecmath.Pose
	Cloud    *gauss.Cloud
	Mapper   *mapper.Mapper
	Info     []FrameInfo
	Trace    *trace.Run

	chain [32]byte
	ate   metrics.ATEMoments
}

// ATERMSECm returns the trajectory error of the whole stream in centimeters
// (Table 2's unit), solved from the moments every frame was folded into.
func (r *Result) ATERMSECm() (float64, error) {
	ate, err := r.ate.RMSE()
	return ate * 100, err
}

// System is a single-stream 3DGS-SLAM instance: the engine a Session drives,
// also usable directly when the caller owns the frame loop. Call Close when
// done: it runs the last frame's mapping tail.
//
// A System is driven from one goroutine, which, while it waits for a tail in
// join, also takes tiles of the tail's passes. ProcessFrame returns with the
// frame's pose and FrameInfo committed and its mapping tail pending, holding
// no render context: nothing of a system runs behind its caller's back. The
// next ProcessFrame freezes the map into its tracking context, starts the
// tail on the system's one tail goroutine (startTail), tracks its own frame
// beside it against the frozen map and joins it, so that goroutine lives
// inside one call. While a tail is in flight it alone touches the mapper,
// the mapping context and its frame's record; the caller's side touches only what a front reads or a
// middle commits: the detector, the aligner, the refiner and the tracking
// context, prevFrame, prevPose, prevRel, keyFrame, keyFramePos, keyPose and
// frameCount, and, once the tail is joined, the mapper's key-frame window, the
// stream's history and the next tail.
//
// AppendSnapshot and Snapshot encode the pending tail as data and join
// nothing. Finish, Close and Mapper join first, which starts a pending tail
// on the tail goroutine and serves it, as every join does; a frame processed
// after such a join refines against the joined map. FrameCount does not need
// to join.
type System struct {
	Cfg  Config
	Intr camera.Intrinsics

	mapper   *mapper.Mapper
	refiner  *tracker.GSRefiner
	aligner  *tracker.CoarseAligner
	detector *covis.Detector
	// pool supplies the two render contexts a frame holds while it runs:
	// the tracking context its middle renders the frozen map through, and
	// the mapping context the previous frame's tail renders through (the
	// refiner's and the mapper's Ctx, each nil between frames). Standalone
	// systems draw from DefaultServer's pool; sessions share their server's.
	pool *splat.ContextPool
	// crew is how the producer takes tiles of its tail's passes while it
	// waits in join: attached to the mapping context a started tail renders
	// through, and detached before that context goes back to the pool.
	crew *splat.Crew

	prevFrame   *frame.Frame
	prevPose    vecmath.Pose
	prevRel     vecmath.Pose // last inter-frame relative motion (velocity model)
	keyFrame    *frame.Frame // last key frame (for Thresh_M comparisons)
	keyFramePos int          // its position in the stream: the frame count when it was accepted
	keyPose     vecmath.Pose // estimated pose of the last key frame
	frameCount  int

	// chain and ate are the stream's history: the hash chain and the ATE
	// moments every joined frame's record was folded into (fold), so ate.N
	// counts those frames. An offline venue (history set) also keeps the
	// records' poses, FrameInfos and traces.
	chain       [32]byte
	ate         metrics.ATEMoments
	foldBuf     []byte
	history     bool
	poses       []vecmath.Pose
	info        []FrameInfo
	traceFrames []trace.FrameTrace

	// tail is the last accepted frame's mapping tail, pending or in flight;
	// nil once join has seen it through. A pending tail holds no render
	// context.
	tail *mappingTail
}

// venue says where a system runs (see the package doc): offline systems keep
// the per-frame history with its trace detail, serving ones keep the running
// digest only.
type venue bool

const (
	offline venue = false
	serving venue = true
)

// New returns a standalone system for the given camera, an offline venue
// drawing its render contexts from DefaultServer's pool; call Close to map
// the last frame. Multi-stream callers should open Sessions on a Server
// instead.
func New(cfg Config, intr camera.Intrinsics) *System {
	return newSystem(cfg, intr, DefaultServer().ContextPool(), offline)
}

// newSystem builds a system for venue v over the given context pool. The
// tracker and mapper are told here, once, whether to build trace detail, and
// the system whether to keep the per-frame history.
func newSystem(cfg Config, intr camera.Intrinsics, pool *splat.ContextPool, v venue) *System {
	refiner := tracker.NewGSRefiner()
	refiner.LR = cfg.TrackLR
	refiner.ScalarsOnly = v == serving
	m := mapper.New(cfg.Mapper)
	m.ScalarsOnly = v == serving
	return &System{
		Cfg:      cfg,
		Intr:     intr,
		mapper:   m,
		refiner:  refiner,
		aligner:  tracker.NewCoarseAligner(),
		detector: covis.NewDetector(),
		pool:     pool,
		crew:     splat.NewCrew(),
		prevRel:  vecmath.PoseIdentity(),
		history:  v == offline,
	}
}

// Mapper exposes the mapping state (for experiments), as of the last frame
// ProcessFrame accepted: it joins that frame's tail, so the next frame
// refines against the map it returns.
func (s *System) Mapper() *mapper.Mapper {
	s.join()
	return s.mapper
}

// Close sees the last frame's mapping through: its join starts the pending
// tail on a context drawn from the pool, serves it and hands the context
// back. It is idempotent, and the system remains usable — the next frame
// refines against the joined map — but callers should treat Close as the end
// of the stream: Run, sessions, and the CLIs all close their systems so that
// no accepted frame goes unmapped.
func (s *System) Close() { s.join() }

// ProcessFrame ingests the next frame of the stream, in the paper's Fig. 9
// schedule: this frame's tracking beside the previous frame's mapping.
//
//   - The tracking context is drawn from the pool and, while the previous
//     frame's mapping tail is still pending, the map is frozen into it: the
//     map as it stood before that tail, which this frame refines against.
//     The first frame, which tracks nothing, draws it too.
//   - The pending tail starts on the system's one tail goroutine, with a
//     mapping context of its own, drawn just before the tracking context
//     (startTail).
//   - The front reads only frames and committed poses (CODEC ME against the
//     previous frame, the covisibility comparison against the key frame,
//     coarse alignment). A frame it rejects (malformed, wrong size, a
//     failing comparison) returns its error with nothing committed, once
//     the previous tail is joined.
//   - The middle settles the pose (pose refinement against the frozen map)
//     and commits every decision the next front reads: the pose, the
//     velocity, the key-frame anchor, the frame's FrameInfo.
//   - The tracking context goes back to the pool, then the join waits for
//     the previous tail and hands its mapping context back: the reverse of
//     the order they were drawn in, so the pool's stack keeps each context in
//     its role. The frame count moves on.
//   - The frame joins the mapper's key-frame window if it is one of its
//     frames, and its tail (the false-positive measurement, Densify, full or
//     selective mapping, Prune) is left pending with the frame's record,
//     holding no context, for the next call, whose join folds the record
//     into the stream's history.
//
// The second frame is the one exception: it refines against the bootstrap
// map, so it joins the first frame's tail before it tracks. A frame after a
// join outside ProcessFrame (Mapper, Finish, Close) likewise refines against
// the map that join left.
//
// At return the frame's pose and FrameInfo are final, but for its
// false-positive rate, which its tail measures, and FrameCount counts it;
// the map, the history and anything derived from them are read through a
// method that joins (see System). A panic in the tail resurfaces from the
// join, on the goroutine that called it.
func (s *System) ProcessFrame(f *frame.Frame) error {
	if err := checkFrame(f, &s.Intr); err != nil {
		return fmt.Errorf("slam: %w", err)
	}
	if s.frameCount == 1 {
		s.join() // the second frame refines against the bootstrap map
	}
	ft := &trace.FrameTrace{Index: s.frameCount}
	var info FrameInfo
	pose, err := s.trackBeside(f, ft, &info)
	if err != nil {
		return fmt.Errorf("slam: frame %d: %w", s.frameCount, err)
	}
	s.commit(f, pose, ft, &info)
	return nil
}

// trackBeside tracks f beside the pending tail, if there is one, and joins
// it, whether tracking returns, fails or panics, so no tail is in flight once
// it is done. The mapping context is drawn first and handed back last, so the
// pool's LIFO stack gives each context the same role frame after frame and
// the tracking context never grows to a mapping render's size.
func (s *System) trackBeside(f *frame.Frame, ft *trace.FrameTrace, info *FrameInfo) (vecmath.Pose, error) {
	var mapCtx *splat.RenderContext
	if s.tail != nil {
		mapCtx = s.pool.Acquire()
	}
	ctx := s.pool.Acquire()
	cloud := s.mapper.Cloud()
	if mapCtx != nil {
		cloud = ctx.Freeze(cloud)
		s.startTail(mapCtx)
		defer s.join()
	}
	defer s.pool.Release(ctx)
	return s.track(f, ctx, cloud, ft, info)
}

// commit accepts a tracked frame once the previous frame's tail is joined:
// it makes the frame the previous frame, adds it to the mapper's key-frame
// window if it joins it, leaves its mapping tail pending with its record
// (pose, ground truth, FrameInfo, trace) and moves the frame count on.
func (s *System) commit(f *frame.Frame, pose vecmath.Pose, ft *trace.FrameTrace, info *FrameInfo) {
	s.prevFrame = f
	if s.joinsWindow(s.frameCount, info.IsKeyFrame) {
		s.mapper.AddKeyframe(f, s.frameCount, pose)
	}
	s.tail = s.newTail(s.frameCount, f, record{pose: pose, gt: f.GTPose, info: *info, ft: ft})
	s.frameCount++
}

// track is a frame's front and middle, run against cloud (the map, frozen
// into ctx while a tail runs beside): the first frame's bootstrap, or the
// front and the pose refinement of any later one. It returns the frame's
// pose with its FrameInfo and trace filled in, or the front's error with
// nothing committed.
func (s *System) track(f *frame.Frame, ctx *splat.RenderContext, cloud *gauss.Cloud, ft *trace.FrameTrace, info *FrameInfo) (vecmath.Pose, error) {
	if s.frameCount == 0 {
		return s.bootstrap(f, ft, info), nil
	}
	fr, err := s.front(f)
	if err != nil {
		return vecmath.Pose{}, err
	}
	s.refiner.Ctx = ctx
	pose := s.step(f, &fr, cloud, ft, info)
	s.refiner.Ctx = nil
	return pose, nil
}

// checkFrame is the one gate a frame passes before the pipeline indexes its
// planes, whether it was pushed or came back in a restore: both planes
// present and exactly their declared size, and that size the camera's.
func checkFrame(f *frame.Frame, intr *camera.Intrinsics) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.Color.W != intr.W || f.Color.H != intr.H {
		return fmt.Errorf("frame %dx%d does not match camera %dx%d", f.Color.W, f.Color.H, intr.W, intr.H)
	}
	return nil
}

// record is what a frame adds to the stream's history once its tail is
// joined: its pose, its ground-truth pose, its FrameInfo and its
// FrameTrace, whose front and middle parts the frame fills in and whose
// mapping part and false-positive rate its tail does.
type record struct {
	pose, gt vecmath.Pose
	info     FrameInfo
	ft       *trace.FrameTrace
}

// mappingTail is one accepted frame's mapping tail, held as data so that a
// snapshot carries it pending and a restore rebuilds it (newTail): the frame
// at stream position pos, its record, and the mapping its key-frame decision
// chose. done is nil while the tail is pending and, once startTail has put it
// on a goroutine, receives nil or what the tail panicked with, exactly once.
type mappingTail struct {
	pos int
	f   *frame.Frame
	rec record
	// selective is a non-key frame's selective mapping; otherwise the tail
	// densifies and maps fully.
	selective bool
	// restored marks a tail a snapshot carried: its frame's trace arrived
	// as scalars (a snapshot holds no detail) and stays so, and its record
	// joins the hash chain and the moments but no per-frame history.
	restored bool
	done     chan *tailPanic
}

// newTail is the mapping tail of the frame at position pos, which the middle
// (or, for the first frame, bootstrap) accepted with record rec: a GCM
// non-key frame maps selectively, every other frame densifies and maps fully.
func (s *System) newTail(pos int, f *frame.Frame, rec record) *mappingTail {
	return &mappingTail{pos: pos, f: f, rec: rec, selective: s.Cfg.EnableGCM && !rec.info.IsKeyFrame}
}

// joinsWindow says whether the frame at position pos, a key frame or not,
// joins the mapper's multi-view window: on a GCM run every key frame (the
// first frame is one), on the baseline path the first frame and every
// KeyframeEvery-th. ProcessFrame adds it when it commits the frame, once the
// previous tail is joined, so the frame's own tail samples a window that
// holds it, and a snapshot with that tail pending names no frame the window
// has already let go.
func (s *System) joinsWindow(pos int, key bool) bool {
	if s.Cfg.EnableGCM {
		return key
	}
	return pos == 0 || s.Cfg.KeyframeEvery > 0 && pos%s.Cfg.KeyframeEvery == 0
}

// runTail is the tail's work, on whichever goroutine runs it, through the
// mapper's context: the mapping and the end-of-frame map maintenance, with
// their outcome written to the tail's record. It reads the tail, the mapper
// and the configuration, and writes the mapper and the tail, nothing a front
// or a middle reads.
func (s *System) runTail(t *mappingTail) {
	ft := t.rec.ft
	if t.restored {
		defer func(v bool) { s.mapper.ScalarsOnly = v }(s.mapper.ScalarsOnly)
		s.mapper.ScalarsOnly = true
	}
	if t.selective {
		if s.Cfg.EvalFPRate {
			t.rec.info.FPRate, t.rec.info.FPValid = s.measureFPRate(t.rec.pose), true
		}
		ft.SkippedGaussians = s.mapper.NumSkipped()
		ft.Map = s.mapper.SelectiveMapping(t.f, s.Intr, t.rec.pose)
	} else {
		s.mapper.Densify(t.f, s.Intr, t.rec.pose)
		ft.Map = s.mapper.FullMapping(t.f, s.Intr, t.rec.pose)
	}
	ft.NumGaussians = s.mapper.Cloud().Len()
	if s.Cfg.PruneEvery > 0 && (t.pos+1)%s.Cfg.PruneEvery == 0 {
		ft.PrunedGaussians = s.mapper.Prune()
	}
}

// startTail puts the pending mapping tail on the system's one tail goroutine,
// rendering through ctx, which join hands back to the pool. ProcessFrame calls
// it once it has frozen the map the tail is about to change, so that the
// frame's tracking runs beside it. The system's crew is attached to ctx, so
// the producer, once it is through tracking, takes tiles of the tail's
// render and train passes in join. A panic in the goroutine is kept for
// join, and the crew's helper is dismissed once the tail is through.
func (s *System) startTail(ctx *splat.RenderContext) {
	t := s.tail
	ctx.Attach(s.crew)
	s.mapper.Ctx = ctx
	t.done = make(chan *tailPanic, 1)
	go func() {
		defer func() {
			var p *tailPanic
			if v := recover(); v != nil {
				p = &tailPanic{value: v, stack: debug.Stack()}
			}
			t.done <- p
			s.crew.Dismiss()
		}()
		s.runTail(t)
	}()
}

// join sees the mapping tail through, if there is one. A pending tail, one
// no ProcessFrame has started (the first frame's bootstrap tail, and the tail
// Finish, Close and Mapper join), is started first, on a mapping context
// drawn from the pool. The tail is then served rather than waited for: the
// caller becomes its crew's helper (splat.Crew.Serve), taking tiles and
// chunks of each pass the tail opens, until the tail dismisses it. Then join
// detaches the crew, hands the mapping context back to the pool and folds
// the frame's record, now final, into the stream's history. A tail that
// panicked panics again here, with its goroutine's stack, and so does one
// whose panic came from a tile or chunk the caller took, which the pass
// handed back to the tail's goroutine: whoever drives the system (a
// session's producer, a ProcessFrame or Finish caller) contains either kind
// with one recover. The system is left with no tail either way, and the
// context the panicking tail held is not returned.
func (s *System) join() {
	t := s.tail
	if t == nil {
		return
	}
	if t.done == nil {
		s.startTail(s.pool.Acquire())
	}
	s.tail = nil
	s.crew.Serve()
	s.mapper.Ctx.Attach(nil)
	if p := <-t.done; p != nil {
		s.mapper.Ctx = nil
		panic(p)
	}
	s.pool.Release(s.mapper.Ctx)
	s.mapper.Ctx = nil
	s.fold(t)
}

// fold adds a joined tail's record to the stream's history: the hash chain
// moves on to SHA-256(chain ‖ record), the record encoded as a snapshot holds
// a pending one, the ATE moments take its two camera centres, and an offline
// venue appends it to the per-frame history, unless a snapshot carried it
// (the history starts at the first frame a restored system processes).
func (s *System) fold(t *mappingTail) {
	e := binfmt.Enc{Buf: append(s.foldBuf[:0], s.chain[:]...)}
	encodeRecord(&e, &t.rec)
	s.foldBuf = e.Buf
	s.chain = sha256.Sum256(e.Buf)
	s.ate.Add(t.rec.pose.Center(), t.rec.gt.Center())
	if s.history && !t.restored {
		s.poses = append(s.poses, t.rec.pose)
		s.info = append(s.info, t.rec.info)
		s.traceFrames = append(s.traceFrames, *t.rec.ft)
	}
}

// tailPanic is what join panics with for a tail that ran on its goroutine:
// the value it panicked with and the goroutine's stack at that point, which
// the re-panic would otherwise lose.
type tailPanic struct {
	value any
	stack []byte
}

func (p *tailPanic) Error() string {
	return fmt.Sprintf("slam: mapping tail panicked: %v\n%s", p.value, p.stack)
}

// FrameCount returns how many frames the system has processed — after a
// Restore, the index of the next frame to push.
func (s *System) FrameCount() int { return s.frameCount }

// bootstrap anchors the first frame at its ground-truth pose (the SLAM
// convention: the first camera defines the world frame); its tail builds the
// initial map.
func (s *System) bootstrap(f *frame.Frame, ft *trace.FrameTrace, info *FrameInfo) vecmath.Pose {
	pose := f.GTPose
	ft.IsKeyFrame = true
	info.IsKeyFrame = true
	info.Covisibility = 1
	info.KeyCovisibility = 1
	s.setKeyFrame(f, pose)
	s.prevPose = pose
	return pose
}

// frontOut is what a frame's map-free front produces: the two covisibility
// scores with the CODEC work they cost, and, when the configuration runs the
// coarse stage, its charged workload and pose.
type frontOut struct {
	fc, keyFC  covis.Score
	sadOps     int64
	coarseMACs int64
	coarse     vecmath.Pose
}

// front runs the stages of a frame after the first that read no Gaussian:
// frame covisibility detection and coarse pose estimation. It reads what the
// previous middle committed and writes nothing a snapshot or a tail sees, so
// it runs beside the previous frame's mapping, as the middle does. A covisibility comparison that
// fails is an internal error, not a scene change: it is returned before any
// state is touched rather than read as "no covisibility, new key frame".
func (s *System) front(f *frame.Frame) (frontOut, error) {
	var fr frontOut
	// --- Frame covisibility detection (CODEC + FC detection engine). ---
	fc, me, err := s.detector.Compare(s.prevFrame.Color, f.Color)
	if err != nil {
		return fr, fmt.Errorf("covisibility with the previous frame: %w", err)
	}
	fr.sadOps += me.SADOps
	// Covisibility against the last key frame drives the key-frame decision
	// and selects the coarse-alignment anchor.
	keyFC, me, err := s.detector.Compare(s.keyFrame.Color, f.Color)
	if err != nil {
		return fr, fmt.Errorf("covisibility with the key frame: %w", err)
	}
	fr.sadOps += me.SADOps
	fr.fc, fr.keyFC = fc, keyFC

	if s.Cfg.EnableMAT || s.Cfg.ForceCoarseOnly {
		// Coarse-grained pose estimation (systolic-array workload charged
		// from the backbone model; functional estimate from the aligner).
		// While the last key frame remains well covisible the alignment
		// anchors to it rather than to the previous frame: frame-to-frame
		// odometry accumulates drift, and key-frame anchoring resets it —
		// the role Droid-SLAM's local frame graph plays in the paper.
		fr.coarseMACs = nnlite.PoseWorkload(s.Intr.W, s.Intr.H)
		if float64(keyFC) > s.Cfg.ThreshM {
			// Constant-velocity extrapolation on top of the key-frame anchor.
			initRel := s.prevRel.Compose(s.prevPose.Compose(s.keyPose.Inverse()))
			fr.coarse = s.aligner.EstimatePose(s.keyFrame, f, s.Intr, s.keyPose, initRel)
		} else {
			fr.coarse = s.aligner.EstimatePose(s.prevFrame, f, s.Intr, s.prevPose, s.prevRel)
		}
	}
	return fr, nil
}

// step is the middle of a frame after the first: it settles the pose
// (accepting the front's coarse pose or refining against cloud, the frozen
// map) and commits the pose, the velocity and the key-frame anchor. The
// key-frame decision depends on the front's key covisibility and the
// configuration alone, so the next front can read its outcome before the
// mapping it selects has run.
func (s *System) step(f *frame.Frame, fr *frontOut, cloud *gauss.Cloud, ft *trace.FrameTrace, info *FrameInfo) vecmath.Pose {
	info.Covisibility = fr.fc
	info.KeyCovisibility = fr.keyFC
	ft.Covisibility = float64(fr.fc)
	ft.CodecSADOps = fr.sadOps
	ft.CoarseMACs = fr.coarseMACs

	// --- Tracking. ---
	var pose vecmath.Pose
	if s.Cfg.EnableMAT || s.Cfg.ForceCoarseOnly {
		switch {
		case s.Cfg.ForceCoarseOnly, float64(fr.fc) > s.Cfg.ThreshT:
			pose = fr.coarse
			info.CoarseOnly = true
			ft.CoarseOnly = true
		default:
			pose, ft.Track = s.refiner.Refine(cloud, s.Intr, f, fr.coarse, s.Cfg.IterT)
			info.RefineIters = s.Cfg.IterT
		}
	} else {
		// Baseline: constant-velocity initialization (with the previous pose
		// as fallback for motion reversals) + N_T iterations.
		inits := []vecmath.Pose{s.prevRel.Compose(s.prevPose), s.prevPose}
		pose, ft.Track = s.refiner.RefineBest(cloud, s.Intr, f, inits, s.Cfg.TrackIters)
		info.RefineIters = s.Cfg.TrackIters
	}
	s.prevRel = pose.Compose(s.prevPose.Inverse())
	s.prevPose = pose

	// --- Key-frame decision (the tail maps by it, see newTail). ---
	covisible := float64(fr.keyFC) > s.Cfg.ThreshM
	switch {
	case s.Cfg.EnableGCM && covisible:
		// Non-key frame: selective mapping with the recorded skip set.
	case s.Cfg.EnableGCM:
		// New key frame: densify, full mapping, refresh contribution.
		ft.IsKeyFrame = true
		info.IsKeyFrame = true
		s.setKeyFrame(f, pose)
	default:
		// Baseline mapping: densify + full mapping every frame. The anchor
		// key frame advances whenever covisibility with the old one decays,
		// keeping coarse-only variants drift-bounded too.
		ft.IsKeyFrame = true
		info.IsKeyFrame = true
		if !covisible {
			s.setKeyFrame(f, pose)
		}
	}
	return pose
}

// setKeyFrame makes f, the frame being accepted, the key frame: the anchor of
// the Thresh_M comparisons and of coarse alignment.
func (s *System) setKeyFrame(f *frame.Frame, pose vecmath.Pose) {
	s.keyFrame = f
	s.keyFramePos = s.frameCount
	s.keyPose = pose
}

// measureFPRate compares the skip prediction against the ground-truth
// non-contributory set at this frame (one extra logged render; §6.2).
func (s *System) measureFPRate(pose vecmath.Pose) float64 {
	cam := camera.Camera{Intr: s.Intr, Pose: pose}
	res := s.mapper.Ctx.Render(s.mapper.Cloud(), cam, splat.Options{LogContribution: true})
	truth, _ := s.mapper.Cfg.NonContributory(res)
	return metrics.FalsePositiveRate(s.mapper.PredictedNonContrib(), truth)
}

// Finish sees the last frame's mapping through and returns the run's result.
func (s *System) Finish(sequence string) *Result {
	s.join()
	return &Result{
		Sequence: sequence,
		Frames:   s.frameCount,
		Poses:    s.poses,
		Cloud:    s.mapper.Cloud(),
		Mapper:   s.mapper,
		Info:     s.info,
		Trace:    &trace.Run{Frames: s.traceFrames},
		chain:    s.chain,
		ate:      s.ate,
	}
}

// Run executes the pipeline over a whole sequence: a thin wrapper that opens
// one Session on DefaultServer, pushes every frame, and closes it, all on the
// caller's goroutine. Each Push runs its frame's tracking, CODEC motion
// estimation and pose refinement included, beside the previous frame's
// mapping, as the paper's frame walk-through times it (see ProcessFrame).
func Run(cfg Config, seq *scene.Sequence) (*Result, error) {
	return DefaultServer().Run(cfg, seq)
}

// EvaluatePSNR renders every stride-th frame from its estimated pose and
// returns the mean PSNR against the observed images (Fig. 14's metric). The
// render context comes from DefaultServer's pool (reused across frames; PSNR
// reads each render before the next), so evaluation allocates no private
// context per call. A sequence with no frames has no mean, and a result with
// fewer poses than the sequence has frames (a partial run) cannot be rendered
// against it; both are errors.
func EvaluatePSNR(res *Result, seq *scene.Sequence, stride int) (float64, error) {
	if len(seq.Frames) == 0 {
		return 0, fmt.Errorf("slam: evaluate PSNR: sequence %q has no frames", seq.Name)
	}
	if len(res.Poses) < len(seq.Frames) {
		return 0, fmt.Errorf("slam: evaluate PSNR: result holds %d poses for the %d frames of %q",
			len(res.Poses), len(seq.Frames), seq.Name)
	}
	if stride < 1 {
		stride = 1
	}
	var sum float64
	var n int
	pool := DefaultServer().ContextPool()
	ctx := pool.Acquire()
	defer pool.Release(ctx)
	for i := 0; i < len(seq.Frames); i += stride {
		cam := camera.Camera{Intr: seq.Intr, Pose: res.Poses[i]}
		r := ctx.Render(res.Cloud, cam, splat.Options{})
		p, err := metrics.PSNR(r.Color, seq.Frames[i].Color)
		if err != nil {
			return 0, err
		}
		sum += p
		n++
	}
	return sum / float64(n), nil
}
