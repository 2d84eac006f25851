package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ags/internal/camera"
	"ags/internal/splat"
)

func expPerfRender() Experiment {
	return expDef{
		id: "perf-render", paper: "Perf: splat render+backward — worker sharding and frame-persistent contexts",
		needs:  []RunSpec{Spec("Desk", VarBaseline)},
		render: (*Suite).PerfRender,
	}
}

// PerfRender is the perf experiment behind the splat hot path: it times the
// forward and backward passes serial vs sharded on a mapped cloud, asserts
// that every worker count reproduces the serial output bit for bit, and A/Bs
// the frame-persistent RenderContext against the one-shot entry points —
// reporting ns/op and allocs/op for both and asserting (Result.Digest /
// Grads.Digest, which cover the images, AlphaOps/BlendOps traces, the
// contribution log and all gradient buffers) that a warm context is bitwise
// identical to the context-free path at Workers ∈ {1, 2, GOMAXPROCS}.
func (s *Suite) PerfRender(w io.Writer) error {
	b, err := s.Run(Spec("Desk", VarBaseline))
	if err != nil {
		return err
	}
	cloud := b.Result.Cloud
	mid := len(b.Result.Poses) / 2
	cam := camera.Camera{Intr: b.Seq.Intr, Pose: b.Result.Poses[mid]}
	target := b.Seq.Frames[mid]
	lc := splat.DefaultMappingLoss()
	const reps = 4
	cores := runtime.GOMAXPROCS(0)

	renderOpts := func(workers int) splat.Options {
		return splat.Options{Workers: workers, LogContribution: true, ThreshAlpha: 1.0 / 255}
	}
	backOpts := func(workers int) splat.BackwardOptions {
		return splat.BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: workers}
	}

	// --- Worker-sharding wall time (one-shot path), verified bit-identical. ---
	type sample struct {
		workers        int
		renderT, backT time.Duration
		res            *splat.Result
		grads          *splat.Grads
	}
	run := func(workers int) sample {
		sm := sample{workers: workers}
		// Untimed warm-up so first-touch costs are not attributed to the
		// first configuration measured.
		sm.res = splat.Render(cloud, cam, renderOpts(workers))
		sm.grads = splat.Backward(cloud, cam, sm.res, target, lc, backOpts(workers))
		start := wallNow()
		for r := 0; r < reps; r++ {
			sm.res = splat.Render(cloud, cam, renderOpts(workers))
		}
		sm.renderT = wallSince(start) / reps
		start = wallNow()
		for r := 0; r < reps; r++ {
			sm.grads = splat.Backward(cloud, cam, sm.res, target, lc, backOpts(workers))
		}
		sm.backT = wallSince(start) / reps
		return sm
	}

	workerSet := []int{1}
	for _, wkr := range []int{2, cores} {
		if wkr > 1 && wkr != workerSet[len(workerSet)-1] {
			workerSet = append(workerSet, wkr)
		}
	}
	serial := run(1)
	refRes, refGrads := serial.res.Digest(), serial.grads.Digest()
	samples := []sample{serial}
	for _, wkr := range workerSet[1:] {
		sm := run(wkr)
		if sm.res.Digest() != refRes {
			return fmt.Errorf("bench: sharded render (workers=%d) diverged from serial output", wkr)
		}
		if sm.grads.Digest() != refGrads {
			return fmt.Errorf("bench: sharded backward (workers=%d) diverged from serial gradients", wkr)
		}
		samples = append(samples, sm)
	}

	t := NewTable(fmt.Sprintf("Perf: splat render+backward wall-time (%dx%d, %d gaussians, %d cores)",
		b.Seq.Intr.W, b.Seq.Intr.H, cloud.NumActive(), cores),
		"Workers", "Render ms", "Backward ms", "Speedup")
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6) }
	serialTotal := serial.renderT + serial.backT
	for _, sm := range samples {
		total := sm.renderT + sm.backT
		t.AddRow(sm.workers, ms(sm.renderT), ms(sm.backT), float64(serialTotal)/float64(total))
	}
	t.AddNote("all worker counts verified byte-identical to serial (images, counters, gradients)")
	t.Write(w)

	// --- Frame-persistent context vs one-shot entry points. ---
	// Digest gate first: a warm context (reused across every call below) must
	// reproduce the context-free output bit for bit at every worker count.
	ctx := splat.NewRenderContext()
	for _, wkr := range workerSet {
		res := ctx.Render(cloud, cam, renderOpts(wkr))
		if res.Digest() != refRes {
			return fmt.Errorf("bench: contexted render (workers=%d) diverged from context-free output", wkr)
		}
		g := ctx.Backward(cloud, cam, res, target, lc, backOpts(wkr))
		if g.Digest() != refGrads {
			return fmt.Errorf("bench: contexted backward (workers=%d) diverged from context-free gradients", wkr)
		}
	}

	// Allocation/time A/B at Workers=1 (the per-core steady state of the
	// tracker/mapper loops). measure reports ns/op and allocs/op of one
	// render+backward iteration.
	measure := func(render func() *splat.Result, back func(*splat.Result) *splat.Grads) (renderNs, backNs, renderAllocs, backAllocs float64, err error) {
		res := render() // warm-up: size context buffers
		g := back(res)
		wantRes, wantG := res.Digest(), g.Digest()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := wallNow()
		for r := 0; r < reps; r++ {
			res = render()
		}
		renderNs = float64(wallSince(start).Nanoseconds()) / reps
		runtime.ReadMemStats(&m1)
		renderAllocs = float64(m1.Mallocs-m0.Mallocs) / reps

		runtime.ReadMemStats(&m0)
		start = wallNow()
		for r := 0; r < reps; r++ {
			g = back(res)
		}
		backNs = float64(wallSince(start).Nanoseconds()) / reps
		runtime.ReadMemStats(&m1)
		backAllocs = float64(m1.Mallocs-m0.Mallocs) / reps
		if res.Digest() != wantRes || g.Digest() != wantG {
			return 0, 0, 0, 0, fmt.Errorf("bench: output changed across repeats")
		}
		if wantRes != refRes || wantG != refGrads {
			return 0, 0, 0, 0, fmt.Errorf("bench: A/B mode diverged from reference output")
		}
		return renderNs, backNs, renderAllocs, backAllocs, nil
	}

	type mode struct {
		name   string
		render func() *splat.Result
		back   func(*splat.Result) *splat.Grads
	}
	modes := []mode{
		{"contexted (warm)",
			func() *splat.Result { return ctx.Render(cloud, cam, renderOpts(1)) },
			func(res *splat.Result) *splat.Grads { return ctx.Backward(cloud, cam, res, target, lc, backOpts(1)) }},
		{"one-shot (fresh context)",
			func() *splat.Result { return splat.Render(cloud, cam, renderOpts(1)) },
			func(res *splat.Result) *splat.Grads { return splat.Backward(cloud, cam, res, target, lc, backOpts(1)) }},
	}
	ct := NewTable("Perf: frame-persistent RenderContext vs one-shot entry points (workers=1)",
		"Mode", "Render us/op", "Backward us/op", "Render allocs/op", "Backward allocs/op")
	var ctxAllocs, freeAllocs float64
	for i, md := range modes {
		rNs, bNs, rAl, bAl, err := measure(md.render, md.back)
		if err != nil {
			return err
		}
		switch i {
		case 0:
			ctxAllocs = rAl + bAl
		case 1:
			freeAllocs = rAl + bAl
		}
		ct.AddRow(md.name, fmt.Sprintf("%.1f", rNs/1e3), fmt.Sprintf("%.1f", bNs/1e3),
			fmt.Sprintf("%.1f", rAl), fmt.Sprintf("%.1f", bAl))
	}
	// The acceptance gate: warm contexted iterations must stay at <= 10% of
	// the context-free allocation rate (+1 alloc of headroom so a stray
	// mid-measurement GC cannot flake the run; steady state measures 0).
	if ctxAllocs > freeAllocs/10+1 {
		return fmt.Errorf("bench: warm context allocates %.1f/op vs %.1f one-shot (gate: <=10%%) — context reuse regressed", ctxAllocs, freeAllocs)
	}
	ct.AddNote("contexted output verified bitwise identical to context-free at workers ∈ %v", workerSet)
	ct.Write(w)
	return nil
}
