package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"ags/internal/hw/platform"
	"ags/internal/hw/trace"
	"ags/internal/scene"
	"ags/internal/slam"
)

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	timed   bool // measure the end-to-end metrics (tracing off)
	traced  bool // run the traced pass and the layer probes
	// reps overrides the repetition count --seconds would buy; setupReps is
	// how often set-up is repeated. Tests shrink both.
	reps, setupReps int
	// corruptDigest flips a bit of the reference digest before the
	// comparisons, so a test can see the checks fail.
	corruptDigest bool
}

// metric is one reported number. Values keep every digit they were measured
// with.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the object printed as the last line of a workload's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one workload's execution: its metrics so far and the tally of
// frames attempted and of failures (push/process errors and failed checks).
type run struct {
	w   *workload
	o   options
	cfg slam.Config
	tr  *tracer // nil unless o.traced
	log io.Writer

	attempted, failed int
	metrics           map[string]metric
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness check; a failed one counts as a failure.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.failed++
	fmt.Fprintf(r.log, "CHECK FAILED [%s]: %s\n", r.w.name, fmt.Sprintf(format, args...))
}

// reference is an in-process System run of one stream: the digest every
// other venue and repetition must reproduce, and the source of the accuracy,
// state-size and simulated-time metrics.
type reference struct {
	seq           *scene.Sequence
	rep           *sysRep
	ate, psnr     float64
	ateMs, psnrMs float64
}

// repSample is what one timed repetition contributes to the estimators.
type repSample struct {
	// blocks[s] is stream s's time per frame (ms) in each sync interval: one
	// ProcessFrame call, or one checkpoint window of a fleet stream.
	blocks [][]float64
	// tails[s] is what stream s spent after its last interval (ms): nothing
	// for a System, leftover pushes and Close for a fleet stream.
	tails []float64
	mem   memMark
	fleet *fleetRep
}

// runWorkload executes one workload and returns its report.
func runWorkload(w *workload, o options, tr *tracer, log io.Writer) report {
	r := &run{w: w, o: o, cfg: w.slamConfig(), log: log, metrics: map[string]metric{}}
	if o.traced {
		r.tr = tr
		tr.workload = w.name
	}
	if err := r.execute(); err != nil {
		r.failed++
		fmt.Fprintf(log, "ERROR [%s]: %v\n", w.name, err)
	}
	return report{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

func (r *run) execute() error {
	w, o := r.w, r.o

	// Set-up is repeated o.setupReps times: twice before the first frame and
	// then once after each timed repetition, so that the samples span the run
	// and a burst on the box cannot cover them all.
	var su setupSamples
	for i := 0; i < min(2, o.setupReps); i++ {
		if err := r.setup(&su); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	seqs := su.seqs
	refs, err := r.references(seqs)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	want := make([][32]byte, len(refs))
	for i, ref := range refs {
		want[i] = ref.rep.digest
		if o.corruptDigest {
			want[i][0] ^= 1
		}
	}
	r.checkReferences(refs, want)

	reps := o.reps
	if reps == 0 {
		reps = max(3, int(o.seconds/w.repSeconds))
	}
	if !o.timed {
		reps = 1 // the traced pass only needs an untraced repetition to compare with
	}
	if w.fleet {
		if _, err := r.timedRep(seqs, want, nil, -1, -1); err != nil { // warm-up; a System workload's is its reference run
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	var samples []repSample
	for i := 0; i < reps; i++ {
		s, err := r.timedRep(seqs, want, nil, -1, i)
		if err != nil {
			return fmt.Errorf("rep %d: %w", i, err)
		}
		samples = append(samples, s)
		if len(su.seconds) < o.setupReps {
			if err := r.setup(&su); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
	}
	for len(su.seconds) < o.setupReps {
		if err := r.setup(&su); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}

	if o.timed {
		r.endToEnd(minOf(su.seconds), refs, samples)
	}
	if o.traced {
		root := r.tr.begin("workload.rep", -1, reps, -1)
		traced, err := r.timedRep(seqs, want, r.tr, root, reps)
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("traced rep: %w", err)
		}
		fmt.Fprintf(r.log, "# %s: traced repetition %.1f ms, %.3f ms of it outside any child span\n",
			w.name, r.tr.spans[root].ms(), float64(selfTimeNs(r.tr.spans, root))/1e6)
		r.set("scene.generate_ms_per_frame", minOf(su.generateMs)/float64(w.totalFrames()), "ms")
		if err := r.layers(refs, samples, traced); err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
	}
	return nil
}

// setupSamples collects the repetitions of set-up: each one's seconds, its
// scene.Generate share in ms, and the sequences the first one made.
type setupSamples struct {
	seqs       []*scene.Sequence
	seconds    []float64
	generateMs []float64
}

// setup times one set-up — everything before the first frame — on one
// processor. scene.Generate fans rows out over GOMAXPROCS, and on the box this
// was sized on the second core comes and goes for half an hour at a time: two
// sets of runs of the same code read 0.044 s and 0.028 s. On one processor
// set-up is the work it does, which is what a later change that moves work
// into set-up must show.
func (r *run) setup(su *setupSamples) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t := time.Now()
	seqs, gen, err := r.setupOnce()
	if err != nil {
		return err
	}
	su.seconds = append(su.seconds, time.Since(t).Seconds())
	su.generateMs = append(su.generateMs, ms(gen))
	if su.seqs == nil {
		su.seqs = seqs
	}
	return nil
}

// setupOnce does what a user pays before the first frame: generate the
// sequences, bring up the venue, open the streams, and close them idle.
func (r *run) setupOnce() ([]*scene.Sequence, time.Duration, error) {
	seqs, gen, err := makeInputs(r.w, r.o.seed)
	if err != nil {
		return nil, 0, err
	}
	if !r.w.fleet {
		slam.New(r.cfg, seqs[0].Intr).Close()
		return seqs, gen, nil
	}
	c, err := bootCluster(len(seqs))
	if err != nil {
		return nil, 0, err
	}
	for _, seq := range seqs {
		st, err := c.router.OpenWith(seq.Name, r.cfg, seq.Intr, checkpointed)
		if err != nil {
			c.close()
			return nil, 0, err
		}
		if _, err := st.Close(); err != nil {
			c.close()
			return nil, 0, err
		}
	}
	return seqs, gen, c.close()
}

// references runs every stream once through an in-process System, streams of
// one workload side by side.
func (r *run) references(seqs []*scene.Sequence) ([]*reference, error) {
	refs := make([]*reference, len(seqs))
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	for i, seq := range seqs {
		r.attempted += len(seq.Frames)
		wg.Add(1)
		go func(i int, seq *scene.Sequence) {
			defer wg.Done()
			snapAt := min(r.w.venueFrames, len(seq.Frames)-1)
			rep, err := runSystemRep(r.cfg, seq, snapAt, nil, -1, -1)
			if err != nil {
				errs[i] = err
				return
			}
			ref := &reference{seq: seq, rep: rep}
			ref.ateMs = minTime(1, func() { ref.ate, errs[i] = rep.res.ATERMSECm() })
			if errs[i] != nil {
				return
			}
			ref.psnrMs = minTime(1, func() { ref.psnr, errs[i] = slam.EvaluatePSNR(rep.res, seq, 2) })
			refs[i] = ref
		}(i, seq)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// checkReferences verifies what must hold of the reference runs themselves:
// finite accuracy, and a restored final snapshot that finishes to the digest.
func (r *run) checkReferences(refs []*reference, want [][32]byte) {
	for i, ref := range refs {
		name := ref.seq.Name
		r.check(!math.IsNaN(ref.ate) && !math.IsInf(ref.ate, 0), "%s: ATE %v not finite", name, ref.ate)
		r.check(!math.IsNaN(ref.psnr) && !math.IsInf(ref.psnr, 0), "%s: PSNR %v not finite", name, ref.psnr)
		sys, err := slam.Restore(bytes.NewReader(ref.rep.endSnap))
		if err != nil {
			r.check(false, "%s: restore of final snapshot: %v", name, err)
			continue
		}
		r.check(sys.Finish(name).Digest() == want[i], "%s: restored final snapshot finishes to a different digest", name)
		sys.Close()
	}
}

// timedRep runs the workload once and checks its digests against want.
func (r *run) timedRep(seqs []*scene.Sequence, want [][32]byte, tr *tracer, parent, rep int) (repSample, error) {
	if !r.w.fleet {
		seq := seqs[0]
		r.attempted += len(seq.Frames)
		sr, err := runSystemRep(r.cfg, seq, 0, tr, parent, rep)
		if err != nil {
			return repSample{}, err
		}
		r.check(sr.digest == want[0], "rep %d: digest differs from the reference run", rep)
		return repSample{blocks: [][]float64{sr.frameMs}, tails: []float64{0}, mem: sr.mem}, nil
	}
	for _, seq := range seqs {
		r.attempted += len(seq.Frames)
	}
	fr, err := runFleetRep(r.cfg, seqs, len(seqs), checkpointed, tr, parent, rep)
	if err != nil {
		return repSample{}, err
	}
	s := repSample{mem: fr.mem, fleet: fr}
	for i, st := range fr.streams {
		r.check(st.sum.Digest == want[i], "rep %d: stream %s digest differs from the in-process run", rep, seqs[i].Name)
		r.check(st.sum.Frames == len(seqs[i].Frames), "rep %d: stream %s processed %d frames, pushed %d", rep, seqs[i].Name, st.sum.Frames, len(seqs[i].Frames))
		win := windowMs(st.returns, checkpointEvery)
		s.blocks = append(s.blocks, win)
		s.tails = append(s.tails, st.wallMs-ms(st.returns[len(win)*checkpointEvery-1]))
	}
	r.check(fr.router.Recoveries == 0, "rep %d: router recorded %d recoveries", rep, fr.router.Recoveries)
	return s, nil
}

// mergedTrace is the reference runs' hardware traces as one run, for the
// totals and platform models that sum over frames.
func mergedTrace(refs []*reference) *trace.Run {
	var run trace.Run
	for _, ref := range refs {
		run.Frames = append(run.Frames, ref.rep.res.Trace.Frames...)
	}
	return &run
}

// minima reduces the repetitions to per-interval minima, stream by stream,
// and to each stream's fastest tail.
func minima(samples []repSample) (blocks [][]float64, tails []float64) {
	for s := range samples[0].blocks {
		var reps [][]float64
		var t []float64
		for _, smp := range samples {
			reps = append(reps, smp.blocks[s])
			t = append(t, smp.tails[s])
		}
		blocks = append(blocks, minAcross(reps))
		tails = append(tails, minOf(t))
	}
	return blocks, tails
}

// framesPerInterval is how many frames one sync interval covers.
func (w *workload) framesPerInterval() int {
	if w.fleet {
		return checkpointEvery
	}
	return 1
}

// endToEnd derives the ten user-visible metrics.
func (r *run) endToEnd(setupS float64, refs []*reference, samples []repSample) {
	w := r.w
	frames := float64(w.totalFrames())
	blocks, tails := minima(samples)

	var streams, all []float64
	for s, b := range blocks {
		streams = append(streams, streamMs(b, w.framesPerInterval(), tails[s]))
		all = append(all, b...)
	}
	r.set("setup_s", setupS, "s")
	r.set("frames_per_s", throughput(w.totalFrames(), streams), "1/s")
	r.set("frame_ms_p50", percentile(all, 0.5), "ms")
	r.set("frame_ms_p90", percentile(all, 0.9), "ms")
	fmt.Fprintf(r.log, "# %s: %d sync intervals, %d raw samples each, %d raw samples in all\n",
		w.name, len(all), len(samples), len(all)*len(samples))

	var ate, psnr, stateKB, wireBytes float64
	var allocs []float64
	simNs := platform.RunTotal(platform.AGSEdge(), mergedTrace(refs)).TotalNs
	for _, ref := range refs {
		ate += ref.ate / float64(len(refs))
		psnr += ref.psnr / float64(len(refs))
		stateKB += float64(len(ref.rep.endSnap)) / 1024
		var buf []byte
		for _, f := range ref.seq.Frames {
			buf = slam.AppendFrame(buf[:0], f)
			wireBytes += float64(len(buf))
		}
	}
	for _, s := range samples {
		allocs = append(allocs, float64(s.mem.alloc))
		if s.fleet != nil {
			wireBytes = float64(s.fleet.in + s.fleet.out) // identical every repetition
		}
	}
	r.set("ate_cm", ate, "cm")
	r.set("psnr_db", psnr, "dB")
	r.set("state_kb", stateKB, "KiB")
	r.set("wire_kb_per_frame", wireBytes/frames/1024, "KiB")
	r.set("alloc_kb_per_frame", median(allocs)/frames/1024, "KiB")
	r.set("sim_ms_per_frame", simNs/frames/1e6, "ms")
}
