// Package mapper implements the map-side of 3DGS-SLAM: densification
// (seeding Gaussians from RGB-D observations), full mapping (N_M training
// iterations that also record per-Gaussian contribution information), and
// AGS's Gaussian contribution-aware selective mapping that skips Gaussians
// predicted non-contributory from the last key frame (paper §4.3, Fig. 8).
// A Gaussian contributes at a pixel exactly where it blends, at alpha >=
// splat.MinAlpha: the paper's Thresh_alpha, 1/255, is not a setting.
package mapper

import (
	"math"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/hw/trace"
	"ags/internal/optim"
	"ags/internal/splat"
	"ags/internal/vecmath"
)

// The settings every run shares, fixed here rather than configured.
const (
	// seed starts the generator that samples the multi-view window.
	seed = 1
	// silThreshold: pixels with rendered silhouette below this are
	// considered unobserved and get new Gaussians during densification.
	silThreshold = 0.5
	// depthErrThresh: observed pixels whose depth error exceeds this
	// fraction of the measurement get new Gaussians too.
	depthErrThresh = 0.05
	// Learning rates of the mean, colour, opacity-logit and log-scale groups.
	lrMean, lrColor, lrLogit, lrScale = 1e-3, 5e-3, 2e-2, 1e-3
	// contribPixMax is the largest number of contributing pixels a Gaussian
	// may have and still be skipped. The paper's count-only criterion assumes
	// trained-3DGS splat statistics; with SplaTAM-style pixel-scale Gaussians
	// every contributor also has a large weak-tail footprint, so we
	// additionally require (near-)zero contributing pixels — matching Fig. 5's
	// "no impact on pixel color" definition and the paper's FP metric (see
	// README: threshold mapping).
	contribPixMax = 1
)

// Config controls mapping behavior.
type Config struct {
	// MapIters is N_M, the training iterations per frame.
	MapIters int
	// ThreshN marks a Gaussian non-contributory for following non-key frames
	// when its non-contributory pixel count exceeds this. The paper's 450
	// holds at every resolution: the count is bounded by the Gaussian's tile
	// footprint (tiles x 256 pixels), which does not grow with the image.
	ThreshN int
	// DensifyStride seeds one Gaussian per stride x stride pixel block.
	DensifyStride int
	// KeyframeWindow is how many past keyframes mapping samples from.
	KeyframeWindow int
}

// DefaultConfig returns mapping settings tuned for the reproduction's frame
// sizes, with the paper's Thresh_N.
func DefaultConfig() Config {
	return Config{
		MapIters:       15,
		ThreshN:        450,
		DensifyStride:  1,
		KeyframeWindow: 8,
	}
}

// Keyframe is a stored reference view used by the multi-view mapping loss.
// Pos is the frame's position in its stream (how many frames the system had
// accepted before it): the name a snapshot gives the frame, so that a
// requester who already holds it need not be sent its body.
type Keyframe struct {
	Frame *frame.Frame
	Pos   int
	Pose  vecmath.Pose
}

// Mapper owns the Gaussian cloud and its optimizer state.
type Mapper struct {
	Cfg Config
	// Ctx is the render context the mapping loop and densification render
	// through, and the Adam step runs its chunked pass through (so a crew
	// attached to it helps with both), which keeps the MapIters hot path
	// allocation-free; the caller sets it before mapping. Not safe for concurrent use — a mapping that
	// runs beside the tracker renders through a context of its own. slam
	// draws one from its server's splat.ContextPool for each frame's mapping
	// tail, so the field may change identity between frames.
	Ctx *splat.RenderContext
	// ScalarsOnly makes FullMapping and SelectiveMapping return the mapping
	// work's scalars without the representative iteration's detail (see
	// trace.RenderStats): the per-pixel planes and tile lists are never packed.
	// slam sets it once, when it builds a serving session's mapper; everything
	// the mapper itself does is identical either way.
	ScalarsOnly bool

	cloud *gauss.Cloud
	rng   *prng
	// One Adam per parameter group, as SplaTAM trains them, each at its own
	// learning rate: means and colors are 3 values per Gaussian, logits and
	// log-scales 1. The set is fixed; optGroups names it for the code that
	// treats the four alike.
	optMean, optColor, optLogit, optScale optim.Adam
	// step is the Adam step applyGrads has open, which the participants of
	// its pass read.
	step adamStep

	// skipSet flags Gaussians predicted non-contributory for non-key frames,
	// from the contribution recorded at the last key frame (per Gaussian ID).
	skipSet []bool
	// keyframes retained for the multi-view loss.
	keyframes []Keyframe
}

// New returns an empty mapper.
func New(cfg Config) *Mapper {
	return &Mapper{
		Cfg:      cfg,
		cloud:    gauss.NewCloud(4096),
		rng:      newPRNG(seed),
		optMean:  *optim.NewAdam(lrMean),
		optColor: *optim.NewAdam(lrColor),
		optLogit: *optim.NewAdam(lrLogit),
		optScale: *optim.NewAdam(lrScale),
	}
}

// optGroup is one of the mapper's optimizers with its snapshot name and the
// number of parameters it holds per Gaussian.
type optGroup struct {
	name   string
	stride int
	adam   *optim.Adam
}

// optGroups lists the four optimizers in the order a snapshot stores them
// (by name).
func (m *Mapper) optGroups() [4]optGroup {
	return [4]optGroup{
		{"color", 3, &m.optColor},
		{"logit", 1, &m.optLogit},
		{"mean", 3, &m.optMean},
		{"scale", 1, &m.optScale},
	}
}

// Cloud exposes the map.
func (m *Mapper) Cloud() *gauss.Cloud { return m.cloud }

// NumSkipped returns how many Gaussians the skip set suppresses.
func (m *Mapper) NumSkipped() int {
	n := 0
	for _, s := range m.skipSet {
		if s {
			n++
		}
	}
	return n
}

// PredictedNonContrib returns the IDs the skip set marks, for FP-rate
// evaluation against ground truth (§6.2).
func (m *Mapper) PredictedNonContrib() map[int]bool {
	out := make(map[int]bool)
	for id, s := range m.skipSet {
		if s {
			out[id] = true
		}
	}
	return out
}

// AddKeyframe retains a reference view for the multi-view mapping loss: f, the
// stream's frame at position pos. A window below zero (a remote OPEN can carry
// one) keeps none, like zero.
func (m *Mapper) AddKeyframe(f *frame.Frame, pos int, pose vecmath.Pose) {
	m.keyframes = append(m.keyframes, Keyframe{Frame: f, Pos: pos, Pose: pose})
	if window := max(m.Cfg.KeyframeWindow, 0); len(m.keyframes) > window {
		m.keyframes = m.keyframes[len(m.keyframes)-window:]
	}
}

// Densify adds Gaussians for unobserved or badly-explained pixels of the
// frame (SplaTAM's silhouette-driven densification). On an empty cloud it
// seeds every stride-th pixel. It returns how many Gaussians were added.
func (m *Mapper) Densify(f *frame.Frame, intr camera.Intrinsics, pose vecmath.Pose) int {
	stride := m.Cfg.DensifyStride
	if stride < 1 {
		stride = 1
	}
	cam := camera.Camera{Intr: intr, Pose: pose}
	var res *splat.Result
	if m.cloud.Len() > 0 {
		res = m.Ctx.Render(m.cloud, cam, splat.Options{})
	}
	inv := pose.Inverse()
	added := 0
	for y := 0; y < intr.H; y += stride {
		for x := 0; x < intr.W; x += stride {
			d := f.Depth.At(x, y)
			if d <= 0 {
				continue
			}
			if res != nil {
				pix := y*intr.W + x
				sil := res.Silhouette[pix]
				need := sil < silThreshold
				if !need && sil > 1e-6 {
					rendered := res.Depth.D[pix] / sil
					if math.Abs(rendered-d) > depthErrThresh*d {
						need = true
					}
				}
				if !need {
					continue
				}
			}
			pc := intr.Unproject(vecmath.Vec2{X: float64(x) + 0.5, Y: float64(y) + 0.5}, d)
			g := gauss.Gaussian{
				Mean:  inv.Apply(pc),
				Color: f.Color.At(x, y),
			}
			g.SetScale(0.6 * d * float64(stride) / intr.Fx)
			g.SetOpacity(0.999)
			m.cloud.Add(g)
			added++
		}
	}
	if added > 0 {
		// Optimizer moments are invalidated by the size change; each Adam
		// reinitializes automatically on its next step. The skip set grows
		// with new Gaussians defaulting to "not skipped".
		m.growSkipSet()
	}
	return added
}

func (m *Mapper) growSkipSet() {
	for len(m.skipSet) < m.cloud.Len() {
		m.skipSet = append(m.skipSet, false)
	}
}

// Prune returns 0.
//
// Deprecated: the map only grows (Densify adds, nothing removes), so a
// Gaussian's ID is its position for the whole stream. It remains only because
// benchmarks/layers.go calls it, and goes with that call.
func (m *Mapper) Prune() int { return 0 }

// Compact returns nil, 0.
//
// Deprecated: the map has no dead slots, so there is nothing to compact. It
// remains only because benchmarks/layers.go calls it, and goes with that
// call.
func (m *Mapper) Compact() (remap []int32, freed int) { return nil, 0 }

// FullMapping runs N_M training iterations with every Gaussian (key
// frames, path C of Fig. 7), recording contribution information on the last
// iteration and refreshing the skip set for subsequent non-key frames.
// The returned stats' RepTileLists is the Gaussian-table access stream the
// hardware model's GS logging table replays (absent under ScalarsOnly).
func (m *Mapper) FullMapping(f *frame.Frame, intr camera.Intrinsics, pose vecmath.Pose) trace.RenderStats {
	return m.optimize(f, intr, pose, nil, true)
}

// SelectiveMapping runs N_M training iterations with the predicted
// non-contributory Gaussians skipped (non-key frames, path D of Fig. 7).
func (m *Mapper) SelectiveMapping(f *frame.Frame, intr camera.Intrinsics, pose vecmath.Pose) trace.RenderStats {
	return m.optimize(f, intr, pose, m.skipSet, false)
}

// optimize is the shared mapping loop.
//
//ags:hotpath
func (m *Mapper) optimize(f *frame.Frame, intr camera.Intrinsics, pose vecmath.Pose, skip []bool, logContrib bool) trace.RenderStats {
	var stats trace.RenderStats
	loss := splat.DefaultMappingLoss()
	for i := 0; i < m.Cfg.MapIters; i++ {
		// Mapping uses the current frame plus previous keyframes
		// (paper §2.2: "mapping utilizes not only the current pose ... but
		// also other poses and images from previous frames").
		tf, tp := f, pose
		if i%3 == 2 && len(m.keyframes) > 0 {
			kf := m.keyframes[m.rng.Intn(len(m.keyframes))]
			tf, tp = kf.Frame, kf.Pose
		}
		cam := camera.Camera{Intr: intr, Pose: tp}
		last := i == m.Cfg.MapIters-1
		opts := splat.Options{Skip: skip, LogContribution: logContrib && last}
		res, grads := m.Ctx.Train(m.cloud, cam, opts, tf, loss, splat.BackwardOptions{GaussianGrads: true})
		m.applyGrads(grads)

		stats.Accumulate(res.AlphaOps, res.BlendOps, 2*res.BlendOps,
			int64(len(res.Splats)), int64(res.Tiles.TotalEntries()), int64(intr.W*intr.H))
		if last && !m.ScalarsOnly {
			res.PackDetail(&stats, true)
		}
		if last && logContrib {
			m.recordContribution(res)
		}
	}
	return stats
}

// recordContribution refreshes the skip set from a logged render: the GS
// logging table's counts (Fig. 11) go straight through the comparison unit
// into the GS skipping table (Fig. 12). A Gaussian is skipped when it
// contributed (almost) nowhere and its wasted pixel count exceeds ThreshN; one
// the render does not cover counts zero both ways.
func (m *Mapper) recordContribution(res *splat.Result) {
	m.growSkipSet()
	for id := range m.skipSet {
		var nonContrib, contrib int32
		if id < len(res.NonContrib) {
			nonContrib = res.NonContrib[id]
			contrib = res.Touched[id] - nonContrib
		}
		m.skipSet[id] = contributesNowhere(contrib) && int(nonContrib) > m.Cfg.ThreshN
	}
}

// contributesNowhere is the comparison both the skip prediction and its
// ground truth make: contrib contributing pixels are at most contribPixMax.
func contributesNowhere(contrib int32) bool { return contrib <= contribPixMax }

// NonContributory returns the ground truth the skip prediction is scored
// against (§6.2's false-positive rate, Fig. 5 and Fig. 6): the IDs of the
// Gaussians a logged render shows in a Gaussian table (evaluated at some pixel)
// that contribute nowhere, and how many Gaussians reached a table at all.
func (c *Config) NonContributory(res *splat.Result) (ids map[int]bool, inTables int) {
	ids = make(map[int]bool)
	for id, touched := range res.Touched {
		if touched == 0 {
			continue // culled before the Gaussian tables; not in any table
		}
		inTables++
		if contributesNowhere(touched - res.NonContrib[id]) {
			ids[id] = true
		}
	}
	return ids, inTables
}

// applyGrads steps the per-group Adam optimizers over the Gaussians where they
// lie: a chunked pass over the Gaussian IDs (splat.RenderContext.Each, so the
// crew's helper takes chunks of it as it takes tiles) updates each Gaussian's
// mean and colour (elements 3·id to 3·id+2 of their groups), logit and
// log-scale (element id), and clamps the stepped colour to [0, 1]. Every
// element takes Adam's one arithmetic path, so the map's bits equal those of
// a Step over a flattened copy (TestApplyGradsMatchesFlatSteps).
//
//ags:hotpath
func (m *Mapper) applyGrads(grads *splat.Grads) {
	n := m.cloud.Len()
	m.optMean.Begin(3 * n)
	m.optColor.Begin(3 * n)
	m.optLogit.Begin(n)
	m.optScale.Begin(n)
	m.step = adamStep{m: m, grads: grads}
	m.Ctx.Each(n, &m.step)
	m.step = adamStep{}
}

// adamStep is the work of applyGrads's pass: the mapper whose Gaussians and
// optimizers it steps, and the gradients it applies. Once Begin has opened
// the step, an element's Update touches that element alone, so chunks of
// Gaussian IDs step independently.
type adamStep struct {
	m     *Mapper
	grads *splat.Grads
}

// Chunk steps the Gaussians lo to hi-1.
//
//ags:hotpath
func (s *adamStep) Chunk(lo, hi int) {
	m, grads := s.m, s.grads
	for id := lo; id < hi; id++ {
		g := m.cloud.At(id)
		gm, gc := grads.Mean[id], grads.Color[id]
		g.Mean = vecmath.Vec3{
			X: m.optMean.Update(3*id, g.Mean.X, gm.X),
			Y: m.optMean.Update(3*id+1, g.Mean.Y, gm.Y),
			Z: m.optMean.Update(3*id+2, g.Mean.Z, gm.Z),
		}
		g.Color = vecmath.Vec3{
			X: m.optColor.Update(3*id, g.Color.X, gc.X),
			Y: m.optColor.Update(3*id+1, g.Color.Y, gc.Y),
			Z: m.optColor.Update(3*id+2, g.Color.Z, gc.Z),
		}.Clamp(0, 1)
		g.Logit = m.optLogit.Update(id, g.Logit, grads.Logit[id])
		g.LogScale = m.optScale.Update(id, g.LogScale, grads.LogScale[id])
	}
}
