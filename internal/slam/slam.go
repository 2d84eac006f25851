// Package slam assembles the full 3DGS-SLAM pipeline: the SplaTAM-style
// baseline (N_T tracking iterations + full mapping on every frame) and the
// AGS algorithm (CODEC-based frame covisibility detection, movement-adaptive
// tracking, Gaussian contribution-aware mapping), streaming frames exactly as
// the paper's Fig. 9 walk-through describes. The two AGS features are
// individually switchable so the ablation of Fig. 18 and the Droid+SplaTAM
// comparison of Table 4 come from the same pipeline.
//
// Serving: the public surface is streaming and multi-tenant. A Server owns
// the per-host resources (a bounded, size-keyed splat.ContextPool) and opens
// Sessions — one live sequence each, driven by Push (with backpressure),
// observed on Results, finalized by Close. System remains the single-stream
// engine underneath, and Run is a thin wrapper that streams a
// whole scene.Sequence through one session on DefaultServer. Concurrent
// sessions produce Results digest-identical to sequential runs at every
// worker count and interleaving (Result.Digest asserts it cheaply).
//
// Trace detail: a frame's trace is its scalars (op totals, decisions, map
// size: ~0.4 KiB encoded) and, for the cycle-level hardware models, the
// representative iteration's per-pixel planes, once for tracking and once
// for mapping, and the mapping task's tile lists (trace.RenderStats, each
// sequence a trace.Packed: 11.4 KiB a frame on the benchmark's 64x48 Desk
// stream). Who keeps the detail is a property of the
// venue, decided once when the system is built, not an option:
//
//   - New, Restore, Run and Server.Run are the offline venues. Their Results
//     feed hw/platform through internal/bench and ags-slam, so they keep the
//     detail of every task that ran an iteration.
//   - Server.Open and Server.RestoreSession are the serving venues, the only
//     ones a fleet node uses. Nothing on the serving path reads the detail, so
//     the tracker and mapper never build it and RestoreSession drops what a
//     snapshot brings in. A session's resident state is therefore the map
//     (with its optimizer moments), the key-frame window and the per-frame
//     scalars: it follows the map, not the stream's age. A checkpoint or a
//     migration is less still: the snapshot names the window's frames by
//     their stream positions and leaves out the bodies its requester says it
//     holds (see the frame table in snapshot.go), which for a fleet router is
//     all of them.
//
// Result.Digest covers the scalars and never the detail, so it is one value
// across all venues; the snapshot format encodes absent detail as empty
// sequences and says nothing about the level, which always comes from the restoring
// venue. A serving Result handed to a hardware model yields a bound, not a
// replay (see platform.RunTotal).
//
// Concurrency: the paper's Fig. 9 runs frame t+1's covisibility detection and
// pose tracking on their own engines while the mapping engine finishes frame
// t, which it can because AGS's coarse pose estimation never reads the
// Gaussians. System.ProcessFrame runs that schedule: a frame's map-free front
// (CODEC motion estimation against the previous frame, the covisibility
// comparison against the key frame, coarse alignment) overlaps the previous
// frame's mapping tail, which runs on one goroutine per system; everything
// that reads or writes the map joins that goroutine first (see System). A
// tail is started when there is a front to run beside it, that is by the next
// ProcessFrame, and joined by the same call, so no work of a standalone
// system outlives the call that started it; only a session worker, which
// waits for frames, starts it at once. The schedule is exact, not
// speculative: every input of a front is committed before the preceding tail
// starts, so poses, maps, traces and snapshots are byte for byte those of
// running the stages one after another, at any GOMAXPROCS. It is the schedule
// platform.AGS's Pipelined option charges.
//
// CODEC motion estimation therefore runs in the front, once per comparison,
// and no option selects where or how it runs. Config.Workers parallelizes
// the splat renderer; its tile sharding is deterministic, so the render
// worker count never changes results either — full-parallel runs are exact
// A/B comparable.
package slam

import (
	"fmt"
	"runtime/debug"

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

// Backbone selects the 3DGS-SLAM algorithm AGS runs on top of (§6.6,
// "Generality of AGS").
type Backbone int

const (
	// BackboneSplaTAM is the primary evaluation target.
	BackboneSplaTAM Backbone = iota
	// BackboneGaussianSLAM emulates Gaussian-SLAM's heavier per-frame
	// mapping with sub-map style keyframe handling (Fig. 23).
	BackboneGaussianSLAM
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

	Backbone Backbone
	Mapper   mapper.Config
	TrackLR  float64
	// KeyframeEvery adds every k-th frame to the multi-view mapping window
	// on the baseline mapping path (0 = never).
	KeyframeEvery int
	// PruneEvery runs opacity pruning every k frames (0 = never). A prune
	// removes the Gaussians it prunes and rewrites every retained ID-keyed
	// table (the mapper's skip set, optimizer moments, render traces) through
	// the old→new remap (see System.prune).
	PruneEvery int
	// Workers bounds splat render/backward parallelism (0 = all cores). The
	// splat pipeline shards tiles deterministically, so every value produces
	// bit-identical trajectories, maps and traces (see package splat).
	Workers int
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
}

// DefaultConfig returns the paper's hyper-parameters scaled to the given
// frame size (see README: threshold mapping): N_T 200→60, N_M 30→15,
// Iter_T 20→6, Thresh_T 90%, Thresh_M 50%, Thresh_N 450 (Thresh_alpha is
// splat.MinAlpha, 1/255, in every run).
func DefaultConfig(w, h int) Config {
	mc := mapper.DefaultConfig()
	// The paper's Thresh_N, unscaled: a Gaussian's non-contributory count is
	// bounded by its tile footprint (tiles x 256 pixels), which does not grow
	// with the image, so the threshold is resolution-independent.
	mc.ThreshN = 450
	return Config{
		TrackIters:    60,
		IterT:         6,
		ThreshT:       0.90,
		ThreshM:       0.75,
		Mapper:        mc,
		TrackLR:       5e-3,
		KeyframeEvery: 4,
		PruneEvery:    8,
	}
}

// AGSConfig is DefaultConfig with both AGS features enabled.
func AGSConfig(w, h int) Config {
	cfg := DefaultConfig(w, h)
	cfg.EnableMAT = true
	cfg.EnableGCM = true
	return cfg
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

// Result is the output of a SLAM run.
type Result struct {
	Sequence string
	Poses    []vecmath.Pose
	GT       []vecmath.Pose
	Cloud    *gauss.Cloud
	Mapper   *mapper.Mapper
	Info     []FrameInfo
	Trace    *trace.Run
}

// ATERMSECm returns the trajectory error in centimeters (Table 2's unit).
func (r *Result) ATERMSECm() (float64, error) {
	ate, err := metrics.ATERMSE(r.Poses, r.GT)
	return ate * 100, err
}

// System is a single-stream 3DGS-SLAM instance: the engine a Session drives,
// also usable directly when the caller owns the frame loop. Call Close when
// done so the system's render context returns to its pool.
//
// A System is driven from one goroutine. ProcessFrame returns with the
// frame's pose and FrameInfo committed and its mapping tail pending: nothing
// of a standalone system runs behind its caller's back. The next ProcessFrame
// starts the tail on the system's one tail goroutine, runs its own front
// beside it and joins it, so that goroutine lives inside one call; a session
// worker, which may sit idle until the next frame arrives, starts it at once
// (startTail). While a tail is in flight it alone touches the mapper, the
// render context and the frame's trace.FrameTrace (and, when a prune
// removes Gaussians, the retained traces); the caller's side touches only what a front
// reads or a middle commits: the detector, the aligner, prevFrame, prevPose,
// prevRel, keyFrame, keyFramePos, keyPose, frameCount, poses, gt and info.
// Every method that needs the mapped state (the next ProcessFrame after
// its front, AppendSnapshot, Snapshot, Finish, Close, Mapper) joins first,
// which runs a tail nobody started on the caller's own goroutine; FrameCount
// does not need to.
type System struct {
	Cfg  Config
	Intr camera.Intrinsics

	mapper   *mapper.Mapper
	refiner  *tracker.GSRefiner
	aligner  *tracker.CoarseAligner
	detector *covis.Detector
	// pool supplies the render context ProcessFrame attaches. Standalone
	// systems draw from DefaultServer's pool; sessions share their server's.
	pool *splat.ContextPool
	// perStep makes ProcessFrame release the context back to the pool after
	// every frame instead of pinning it between frames — the multi-tenant
	// mode sessions run in, so idle streams hold no render state.
	perStep bool
	// detail says whether each frame's trace keeps the representative
	// iteration's per-pixel planes and mapping tile lists (trace.RenderStats) beside
	// its scalars. It is a property of the venue, fixed at construction: the
	// offline venues keep it for the hardware models, serving sessions do not,
	// so their resident state and snapshots are O(map), not O(frames).
	detail bool
	// renderCtx is the currently attached splat render context, shared by
	// the tracker and mapper (a frame's refinement runs after the previous
	// frame's mapping is joined and before its own starts) and sized lazily
	// from the intrinsics on first render. Acquired from pool on demand; nil
	// when detached.
	renderCtx *splat.RenderContext

	prevFrame   *frame.Frame
	prevPose    vecmath.Pose
	prevRel     vecmath.Pose // last inter-frame relative motion (velocity model)
	keyFrame    *frame.Frame // last key frame (for Thresh_M comparisons)
	keyFramePos int          // its position in the stream: the frame count when it was accepted
	keyPose     vecmath.Pose // estimated pose of the last key frame
	frameCount  int
	poses       []vecmath.Pose
	gt          []vecmath.Pose
	info        []FrameInfo
	traceFrames []trace.FrameTrace

	// tail is the last accepted frame's mapping tail, pending or in flight;
	// nil once join has seen it through.
	tail *mappingTail
	// onMapped, when set, is called at the end of every tail, on the tail's
	// goroutine, with the frame's outcome (a session publishes it).
	onMapped func(FrameUpdate)
}

// The two levels of trace retention a venue builds its system with (see the
// package doc): the offline venues keep the representative-iteration detail,
// the serving ones the scalars only.
const (
	keepDetail  = true
	scalarsOnly = false
)

// New returns a standalone system for the given camera, drawing its render
// context from DefaultServer's pool. The context is pinned across frames
// (frame-persistent hot path); call Close to return it. Multi-stream callers
// should open Sessions on a Server instead.
func New(cfg Config, intr camera.Intrinsics) *System {
	return newSystem(cfg, intr, DefaultServer().ContextPool(), false, keepDetail)
}

// newSystem builds a system over the given context pool. perStep selects the
// session mode: acquire/release the context around every frame-step rather
// than pinning it for the system's lifetime. detail selects whether traces
// keep the representative-iteration detail; the tracker and mapper are told
// here, once, and never build what would not be kept.
func newSystem(cfg Config, intr camera.Intrinsics, pool *splat.ContextPool, perStep, detail bool) *System {
	mcfg := cfg.Mapper
	mcfg.Workers = cfg.Workers
	if cfg.Backbone == BackboneGaussianSLAM {
		// Gaussian-SLAM optimizes sub-maps with more iterations per frame
		// and a shorter keyframe window.
		mcfg.MapIters = mcfg.MapIters * 2
		mcfg.KeyframeWindow = 4
	}
	refiner := tracker.NewGSRefiner()
	refiner.LR = cfg.TrackLR
	refiner.Workers = cfg.Workers
	refiner.ScalarsOnly = !detail
	m := mapper.New(mcfg)
	m.ScalarsOnly = !detail
	return &System{
		Cfg:      cfg,
		Intr:     intr,
		mapper:   m,
		refiner:  refiner,
		aligner:  tracker.NewCoarseAligner(),
		detector: covis.NewDetector(),
		pool:     pool,
		perStep:  perStep,
		detail:   detail,
		prevRel:  vecmath.PoseIdentity(),
	}
}

// Mapper exposes the mapping state (for experiments), as of the last frame
// ProcessFrame accepted.
func (s *System) Mapper() *mapper.Mapper {
	s.join()
	return s.mapper
}

// attachCtx acquires a render context from the pool (sized for the system's
// camera) and threads it through the tracker and mapper. A no-op when one is
// already attached.
func (s *System) attachCtx() {
	if s.renderCtx != nil {
		return
	}
	ctx := s.pool.Acquire(s.Intr.W, s.Intr.H)
	s.renderCtx = ctx
	s.refiner.Ctx = ctx
	s.mapper.Ctx = ctx
}

// detachCtx unthreads the attached context and releases it to the pool.
func (s *System) detachCtx() {
	if s.renderCtx == nil {
		return
	}
	s.refiner.Ctx = nil
	s.mapper.Ctx = nil
	s.pool.Release(s.renderCtx)
	s.renderCtx = nil
}

// Close sees the last frame's mapping through and releases the system's render
// context back to its pool. It is idempotent, and the system remains usable —
// the next ProcessFrame re-acquires a context — but callers should treat
// Close as the end of the stream: Run, sessions, and the CLIs all close their
// systems so contexts are reclaimed instead of leaking one per run.
func (s *System) Close() {
	s.join()
	s.detachCtx()
}

// ProcessFrame ingests the next frame of the stream, in four parts that
// follow the paper's Fig. 9 engines:
//
//   - The front reads only frames and committed poses (CODEC ME against the
//     previous frame, the covisibility comparison against the key frame,
//     coarse alignment), so it runs while the previous frame's mapping is
//     still in flight. A frame it rejects (malformed, wrong size, a failing
//     comparison) returns its error here with nothing committed.
//   - The join waits for the previous frame's mapping tail.
//   - The middle does what needs the map as it stood before this frame
//     (pose refinement, the false-positive measurement) and commits every
//     decision the next front reads: the pose, the velocity, the key-frame
//     anchor, the frame's FrameInfo, the frame count.
//   - The tail (Densify, full or selective mapping, the key-frame window,
//     Prune, the trace append, a session's per-step context
//     release and its FrameUpdate) is left pending. The next call starts it
//     on the system's one tail goroutine just before its own front; any other
//     join runs it in place.
//
// At return the frame's pose and FrameInfo are final and FrameCount counts
// it; the map, the trace and anything derived from them are read through a
// method that joins (see System). A panic in the tail resurfaces from the
// join, on the goroutine that called it.
func (s *System) ProcessFrame(f *frame.Frame) error {
	if err := checkFrame(f, &s.Intr); err != nil {
		return fmt.Errorf("slam: %w", err)
	}
	var fr frontOut
	if s.frameCount > 0 {
		s.startTail()
		var err error
		if fr, err = s.front(f); err != nil {
			return fmt.Errorf("slam: frame %d: %w", s.frameCount, err)
		}
	}
	s.join()

	s.attachCtx()
	ft := &trace.FrameTrace{Index: s.frameCount}
	var info FrameInfo
	var mapping func()
	if s.frameCount == 0 {
		mapping = s.bootstrap(f, ft, &info)
	} else {
		mapping = s.step(f, &fr, ft, &info)
	}
	s.info = append(s.info, info)
	s.gt = append(s.gt, f.GTPose)
	s.prevFrame = f
	s.frameCount++

	s.deferTail(ft, mapping, FrameUpdate{Index: ft.Index, Pose: s.prevPose, Info: info})
	return nil
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

// mappingTail is one frame's mapping tail: run is its work; done is nil while
// the tail is pending and, once startTail has put it on a goroutine, receives
// nil or what the tail panicked with, exactly once.
type mappingTail struct {
	run  func()
	done chan *tailPanic
}

// deferTail leaves the frame's mapping tail pending: the mapping the middle
// chose, then the end-of-frame map maintenance and the trace append, with the
// frame count as the middle left it (the next middle joins before it writes
// it). In session mode the tail then hands the context back, so an idle
// stream pins no render state and the pool can serve other sessions, and last
// it reports the frame to onMapped.
func (s *System) deferTail(ft *trace.FrameTrace, mapping func(), upd FrameUpdate) {
	s.tail = &mappingTail{run: func() {
		mapping()
		ft.NumGaussians = s.mapper.Cloud().Len()
		if s.Cfg.PruneEvery > 0 && s.frameCount%s.Cfg.PruneEvery == 0 {
			s.prune(ft)
		}
		s.traceFrames = append(s.traceFrames, *ft)
		if s.perStep {
			s.detachCtx()
		}
		if s.onMapped != nil {
			upd.NumGaussians = ft.NumGaussians
			s.onMapped(upd)
		}
	}}
}

// startTail puts the pending mapping tail, if any, on the system's one tail
// goroutine. ProcessFrame calls it just before a front, the work a tail can
// run beside; a session worker calls it after every frame, because it may
// wait for the next one and neither the mapping nor the frame's FrameUpdate
// should wait with it. A panic in the goroutine is kept for join.
func (s *System) startTail() {
	t := s.tail
	if t == nil || t.done != nil {
		return
	}
	t.done = make(chan *tailPanic, 1)
	go func() {
		defer func() {
			var p *tailPanic
			if v := recover(); v != nil {
				p = &tailPanic{value: v, stack: debug.Stack()}
			}
			t.done <- p
		}()
		t.run()
	}()
}

// join sees the mapping tail through, if there is one: it waits for a tail
// that was started and runs a pending one in place, on the caller's goroutine.
// A tail that panicked on its goroutine panics again here, so whoever drives
// the system (a session worker, a ProcessFrame or Finish caller) contains
// either kind with one recover; the system is left with no tail either way.
func (s *System) join() {
	t := s.tail
	if t == nil {
		return
	}
	s.tail = nil
	if t.done == nil {
		t.run()
		return
	}
	if p := <-t.done; p != nil {
		panic(p)
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

// prune runs the end-of-frame opacity prune. The mapper removes the pruned
// Gaussians and rewrites its own ID-keyed tables; a system that retains trace
// detail then rewrites the Gaussian-ID streams of every retained FrameTrace
// through the same permutation (a serving session retains none, so it walks
// nothing), and the removed Gaussians are recorded in the current frame's
// trace. Because survivors keep their relative order (and the optimizer
// moments ride along), subsequent frames render and train bit-identically to
// a timeline in which the pruned Gaussians were merely never rendered again.
func (s *System) prune(cur *trace.FrameTrace) {
	remap, n := s.mapper.Prune()
	if n == 0 {
		return
	}
	cur.PrunedGaussians = n
	if !s.detail {
		return
	}
	remapTrace(cur, remap)
	for i := range s.traceFrames {
		remapTrace(&s.traceFrames[i], remap)
	}
}

// remapTrace rewrites the Gaussian-ID stream a FrameTrace retains (the
// mapper's per-tile logging lists; the tracker keeps none) through a prune's
// permutation, keeping each frame's lists consistent with the live map's IDs.
// IDs at or beyond the permutation's range — sentinels from an earlier prune
// of a then-larger cloud — are left as they are; each frame's lists stay internally
// consistent, which is all the per-frame hardware-table models consume. A
// sentinel can exceed every ID a list held, so a list whose new IDs outgrow
// its packed width is repacked (trace.Packed.Remap).
func remapTrace(ft *trace.FrameTrace, remap []int32) {
	ft.Map.RepTileLists.IDs.Remap(remap)
}

// bootstrap anchors the first frame at its ground-truth pose (the SLAM
// convention: the first camera defines the world frame) and returns the
// mapping that builds the initial map.
func (s *System) bootstrap(f *frame.Frame, ft *trace.FrameTrace, info *FrameInfo) (mapping func()) {
	pose := f.GTPose
	ft.IsKeyFrame = true
	info.IsKeyFrame = true
	info.Covisibility = 1
	info.KeyCovisibility = 1
	s.setKeyFrame(f, pose)
	s.prevPose = pose
	s.poses = append(s.poses, pose)
	return func() { s.mapFull(f, 0, pose, ft, true) }
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
// it runs beside the previous frame's mapping. A covisibility comparison that
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

// step is the middle of a frame after the first: with the previous frame's
// mapping joined it settles the pose (accepting the front's coarse pose or
// refining against the map), commits the pose, the velocity and the
// key-frame anchor, and returns the frame's mapping for the tail to run. The
// key-frame decision depends on the front's key covisibility and the
// configuration alone, so the next front can read its outcome before the
// mapping it selects has run.
func (s *System) step(f *frame.Frame, fr *frontOut, ft *trace.FrameTrace, info *FrameInfo) (mapping func()) {
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
			pose, ft.Track = s.refiner.Refine(s.mapper.Cloud(), s.Intr, f, fr.coarse, s.Cfg.IterT)
			info.RefineIters = s.Cfg.IterT
		}
	} else {
		// Baseline: constant-velocity initialization (with the previous pose
		// as fallback for motion reversals) + N_T iterations.
		inits := []vecmath.Pose{s.prevRel.Compose(s.prevPose), s.prevPose}
		pose, ft.Track = s.refiner.RefineBest(s.mapper.Cloud(), s.Intr, f, inits, s.Cfg.TrackIters)
		info.RefineIters = s.Cfg.TrackIters
	}
	s.prevRel = pose.Compose(s.prevPose.Inverse())
	s.prevPose = pose
	s.poses = append(s.poses, pose)

	// --- Mapping. ---
	pos := s.frameCount // f's position in the stream; the tail runs after the count moves on
	covisible := float64(fr.keyFC) > s.Cfg.ThreshM
	switch {
	case s.Cfg.EnableGCM && covisible:
		// Non-key frame: selective mapping with the recorded skip set.
		if s.Cfg.EvalFPRate {
			info.FPRate = s.measureFPRate(f, pose)
			info.FPValid = true
		}
		return func() {
			ft.SkippedGaussians = s.mapper.NumSkipped()
			ft.Map = s.mapper.SelectiveMapping(f, s.Intr, pose)
		}
	case s.Cfg.EnableGCM:
		// New key frame: densify, full mapping, refresh contribution.
		ft.IsKeyFrame = true
		info.IsKeyFrame = true
		s.setKeyFrame(f, pose)
		return func() { s.mapFull(f, pos, pose, ft, true) }
	default:
		// Baseline mapping: densify + full mapping every frame.
		ft.IsKeyFrame = true
		info.IsKeyFrame = true
		window := s.Cfg.KeyframeEvery > 0 && s.frameCount%s.Cfg.KeyframeEvery == 0
		// The anchor key frame advances whenever covisibility with the old
		// one decays, keeping coarse-only variants drift-bounded too.
		if !covisible {
			s.setKeyFrame(f, pose)
		}
		return func() { s.mapFull(f, pos, pose, ft, window) }
	}
}

// setKeyFrame makes f, the frame being accepted, the key frame: the anchor of
// the Thresh_M comparisons and of coarse alignment.
func (s *System) setKeyFrame(f *frame.Frame, pose vecmath.Pose) {
	s.keyFrame = f
	s.keyFramePos = s.frameCount
	s.keyPose = pose
}

// mapFull is the mapping of a key frame, the stream's frame at position pos:
// densify where the map does not yet explain the frame, optimize every
// Gaussian, and, when window is set, add the frame to the mapper's multi-view
// window.
func (s *System) mapFull(f *frame.Frame, pos int, pose vecmath.Pose, ft *trace.FrameTrace, window bool) {
	s.mapper.Densify(f, s.Intr, pose)
	ft.Map = s.mapper.FullMapping(f, s.Intr, pose)
	if window {
		s.mapper.AddKeyframe(f, pos, pose)
	}
}

// measureFPRate compares the skip prediction against the ground-truth
// non-contributory set at this frame (one extra logged render; §6.2).
func (s *System) measureFPRate(f *frame.Frame, pose vecmath.Pose) float64 {
	cam := camera.Camera{Intr: s.Intr, Pose: pose}
	res := s.renderCtx.Render(s.mapper.Cloud(), cam, splat.Options{LogContribution: true, Workers: s.Cfg.Workers})
	truth := make(map[int]bool)
	for id := range res.Touched {
		if res.Touched[id] > 0 && res.Touched[id]-res.NonContrib[id] <= int32(s.mapper.Cfg.ContribPixMax) {
			truth[id] = true
		}
	}
	return metrics.FalsePositiveRate(s.mapper.PredictedNonContrib(), truth)
}

// Finish sees the last frame's mapping through and returns the run's result.
func (s *System) Finish(sequence string) *Result {
	s.join()
	return &Result{
		Sequence: sequence,
		Poses:    s.poses,
		GT:       s.gt,
		Cloud:    s.mapper.Cloud(),
		Mapper:   s.mapper,
		Info:     s.info,
		Trace: &trace.Run{
			Sequence: sequence,
			Width:    s.Intr.W,
			Height:   s.Intr.H,
			Frames:   s.traceFrames,
		},
	}
}

// Run executes the pipeline over a whole sequence: a thin wrapper that opens
// one Session on DefaultServer, pushes every frame, and closes it. The
// session's worker runs each frame's front, CODEC motion estimation included,
// beside the previous frame's mapping, as the paper's frame walk-through
// times it (see ProcessFrame).
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
	ctx := pool.Acquire(seq.Intr.W, seq.Intr.H)
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
