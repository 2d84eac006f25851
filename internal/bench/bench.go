// Package bench is the experiment harness: one generator per table and
// figure of the paper's evaluation (§3 motivation profiles and §6), each
// printing the same rows/series the paper reports.
//
// The harness follows the paper's methodology — collect SLAM traces once,
// evaluate every table and figure on them — as a declarative plan:
//
//  1. Every experiment is a value implementing Experiment. Needs() declares
//     the RunSpecs — (sequence, variant, key, override) bundles — the
//     experiment consumes; Render(suite, w) formats its text artifact from
//     the suite's cache.
//  2. RunBatch collects the specs of every selected experiment, deduplicates
//     them, and executes the union across a bounded worker pool, sharing
//     dataset generation and running each unique spec exactly once
//     (singleflight).
//  3. Each experiment then renders in paper order from the warmed cache, so
//     the text output is byte-identical for every worker count.
//
// Direct Suite.Run calls go through the same singleflight cache, so ad-hoc
// use (tests, single experiments) is race-free too.
package bench

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"ags/internal/camera"
	"ags/internal/mapper"
	"ags/internal/metrics"
	"ags/internal/scene"
	"ags/internal/slam"
	"ags/internal/splat"
)

// Config scales the whole experiment suite.
type Config struct {
	Width, Height int
	Frames        int
	TrackIters    int // baseline N_T
	IterT         int // AGS refinement iterations
	MapIters      int // N_M
	DensifyStride int
	Workers       int
	Seed          int64
}

// Quick returns the configuration used by default: small enough that the
// full suite completes in minutes on a laptop CPU, large enough that every
// effect the paper reports is visible.
func Quick() Config {
	return Config{
		Width: 64, Height: 48, Frames: 16,
		TrackIters: 24, IterT: 5, MapIters: 8,
		DensifyStride: 2, Seed: 1,
	}
}

// Full returns the larger configuration (closer to the paper's per-frame
// workload shape; several times slower).
func Full() Config {
	return Config{
		Width: 96, Height: 72, Frames: 40,
		TrackIters: 60, IterT: 6, MapIters: 15,
		DensifyStride: 2, Seed: 1,
	}
}

// Variant names a pipeline configuration.
type Variant string

// Pipeline variants shared by the experiments.
const (
	VarBaseline  Variant = "baseline"   // SplaTAM-style
	VarAGS       Variant = "ags"        // MAT + GCM
	VarMATOnly   Variant = "mat"        // movement-adaptive tracking only
	VarGCMOnly   Variant = "gcm"        // contribution-aware mapping only
	VarDroid     Variant = "droid"      // coarse-only tracking (Table 4)
	VarGSLAMBase Variant = "gslam-base" // Gaussian-SLAM backbone, baseline
	VarGSLAMAGS  Variant = "gslam-ags"  // Gaussian-SLAM backbone + AGS
)

// RunSpec names one (sequence, variant, key, override) bundle an experiment
// consumes. Key distinguishes parameter sweeps sharing a variant; Override,
// if non-nil, further mutates the derived slam.Config and must be a pure
// function of the key so that equal IDs describe equal pipelines. A zero
// Variant marks a dataset-only spec: the scheduler generates the sequence
// but executes no pipeline (experiments that only read frames use this to
// share dataset generation).
type RunSpec struct {
	Seq      string
	Variant  Variant
	Key      string
	Override func(*slam.Config)
}

// Spec returns the RunSpec of a plain (sequence, variant) run.
func Spec(seq string, v Variant) RunSpec { return RunSpec{Seq: seq, Variant: v} }

// SeqSpec returns a dataset-only RunSpec: generate the sequence, run nothing.
func SeqSpec(seq string) RunSpec { return RunSpec{Seq: seq} }

// DatasetOnly reports whether the spec names a dataset with no pipeline run.
func (r RunSpec) DatasetOnly() bool { return r.Variant == "" }

// ID is the cache identity of the spec: sequence/variant/key.
func (r RunSpec) ID() string { return r.Seq + "/" + string(r.Variant) + "/" + r.Key }

// Bundle is one cached SLAM run plus its dataset.
type Bundle struct {
	Seq    *scene.Sequence
	Result *slam.Result

	psnrOnce sync.Once
	psnr     float64
	psnrErr  error
}

// PSNR lazily evaluates (and caches) the run's mean rendering quality.
func (b *Bundle) PSNR() (float64, error) {
	b.psnrOnce.Do(func() {
		b.psnr, b.psnrErr = slam.EvaluatePSNR(b.Result, b.Seq, 2)
	})
	return b.psnr, b.psnrErr
}

// flight is one singleflight cell: the first caller executes, everyone else
// blocks on done and shares the result. Successful cells stay in the map as
// the cache; failed cells are forgotten so later callers retry.
type flight struct {
	done chan struct{}
	val  any
	err  error
	ok   bool // guarded by Suite.mu: fn returned without error
}

// Suite owns the run cache. Experiment text goes to the writer passed to
// Render/RunBatch; the suite itself only writes progress lines to Log.
type Suite struct {
	Cfg Config
	// Log, if non-nil, receives cache-miss progress lines ("# running ...");
	// runs take seconds to minutes. It is never interleaved with experiment
	// text, so batch output stays byte-identical for every worker count.
	Log io.Writer

	mu    sync.Mutex
	seqs  map[string]*flight
	runs  map[string]*flight
	logMu sync.Mutex
}

// NewSuite returns an empty suite.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Cfg:  cfg,
		seqs: make(map[string]*flight),
		runs: make(map[string]*flight),
	}
}

func (s *Suite) logf(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	fmt.Fprintf(s.Log, format, args...)
	s.logMu.Unlock()
}

// doOnce executes fn for id exactly once among concurrent callers, caches a
// successful value forever, and forgets failures so they can be retried.
// fn runs without s.mu held, so it may nest doOnce calls on other maps.
func (s *Suite) doOnce(m map[string]*flight, id string, fn func() (any, error)) (any, error) {
	s.mu.Lock()
	f, ok := m[id]
	if ok {
		s.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f = &flight{done: make(chan struct{})}
	m[id] = f
	s.mu.Unlock()

	f.val, f.err = fn()
	s.mu.Lock()
	if f.err != nil {
		delete(m, id) // allow retries; waiters still see this error
	}
	f.ok = f.err == nil
	s.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// sequence returns (generating on first use) the named dataset. Generation
// is singleflighted: concurrent callers share one build.
func (s *Suite) sequence(name string) (*scene.Sequence, error) {
	v, err := s.doOnce(s.seqs, name, func() (any, error) {
		return scene.Generate(name, scene.Config{
			Width: s.Cfg.Width, Height: s.Cfg.Height, Frames: s.Cfg.Frames, Seed: s.Cfg.Seed,
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*scene.Sequence), nil
}

// Sequence returns the named dataset, panicking on unknown names (experiment
// code only ever asks for the registry's own sequence names).
func (s *Suite) Sequence(name string) *scene.Sequence {
	seq, err := s.sequence(name)
	if err != nil {
		panic(err)
	}
	return seq
}

// slamConfig builds the pipeline configuration for a variant. override, if
// non-nil, may further mutate the config (parameter sweeps).
func (s *Suite) slamConfig(v Variant, override func(*slam.Config)) slam.Config {
	cfg := slam.DefaultConfig(s.Cfg.Width, s.Cfg.Height)
	cfg.TrackIters = s.Cfg.TrackIters
	cfg.IterT = s.Cfg.IterT
	cfg.Mapper.MapIters = s.Cfg.MapIters
	cfg.Mapper.DensifyStride = s.Cfg.DensifyStride
	cfg.Workers = s.Cfg.Workers
	switch v {
	case VarBaseline:
	case VarAGS:
		cfg.EnableMAT, cfg.EnableGCM = true, true
	case VarMATOnly:
		cfg.EnableMAT = true
	case VarGCMOnly:
		cfg.EnableGCM = true
	case VarDroid:
		cfg.ForceCoarseOnly = true
	case VarGSLAMBase:
		cfg.Backbone = slam.BackboneGaussianSLAM
	case VarGSLAMAGS:
		cfg.Backbone = slam.BackboneGaussianSLAM
		cfg.EnableGCM = true
	}
	if override != nil {
		override(&cfg)
	}
	return cfg
}

// Run returns the cached bundle for the spec, executing the pipeline on
// first use. Concurrent callers of one spec share a single execution
// (singleflight), so the batch scheduler and direct calls can overlap freely.
func (s *Suite) Run(spec RunSpec) (*Bundle, error) {
	if spec.DatasetOnly() {
		return nil, fmt.Errorf("bench: run %s: dataset-only spec has no pipeline", spec.ID())
	}
	if spec.Override != nil && spec.Key == "" {
		// An unkeyed override would silently share a cache slot with the
		// plain (sequence, variant) run: whichever executed first would
		// poison the other's numbers. Refuse instead.
		return nil, fmt.Errorf("bench: run %s: override requires a distinguishing key", spec.ID())
	}
	id := spec.ID()
	v, err := s.doOnce(s.runs, id, func() (any, error) {
		seq, err := s.sequence(spec.Seq)
		if err != nil {
			return nil, fmt.Errorf("bench: run %s: %w", id, err)
		}
		s.logf("# running %s ...\n", id)
		res, err := slam.Run(s.slamConfig(spec.Variant, spec.Override), seq)
		if err != nil {
			return nil, fmt.Errorf("bench: run %s: %w", id, err)
		}
		return &Bundle{Seq: seq, Result: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Bundle), nil
}

// MustRun is Run for experiment code where errors are fatal to the harness.
func (s *Suite) MustRun(spec RunSpec) *Bundle {
	b, err := s.Run(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// warm materializes a spec without returning its value: the batch
// scheduler's per-spec unit of work.
func (s *Suite) warm(spec RunSpec) error {
	if spec.DatasetOnly() {
		_, err := s.sequence(spec.Seq)
		return err
	}
	_, err := s.Run(spec)
	return err
}

// Executed returns the sorted RunSpec IDs of every pipeline execution this
// suite performed. Cache hits and singleflight waiters share the first
// caller's cell, so len(Executed()) counts actual executions.
func (s *Suite) Executed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.runs))
	for id, f := range s.runs {
		if f.ok { // not still in flight
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// contributionStats renders frame fi of the bundle at its estimated pose
// with contribution logging and returns (nonContributory, total) Gaussian
// counts under the mapper's thresholds.
func contributionStats(b *Bundle, fi int, mcfg mapper.Config) (nonContrib, total int, ids map[int]bool) {
	cam := camera.Camera{Intr: b.Seq.Intr, Pose: b.Result.Poses[fi]}
	res := splat.Render(b.Result.Cloud, cam, splat.Options{LogContribution: true})
	ids = make(map[int]bool)
	for id := range res.Touched {
		if res.Touched[id] == 0 {
			continue // culled before the Gaussian tables; not in any table
		}
		total++
		if res.Touched[id]-res.NonContrib[id] <= int32(mcfg.ContribPixMax) {
			nonContrib++
			ids[id] = true
		}
	}
	return nonContrib, total, ids
}

// geoMeanOf orders a named float per sequence and appends its GeoMean.
func geoMeanOf(vals map[string]float64, order []string) []float64 {
	out := make([]float64, 0, len(order)+1)
	var list []float64
	for _, name := range order {
		out = append(out, vals[name])
		list = append(list, vals[name])
	}
	out = append(out, metrics.GeoMean(list))
	return out
}
