package mapper

import (
	"math"
	"math/rand"
	"testing"

	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/optim"
	"ags/internal/scene"
	"ags/internal/splat"
	"ags/internal/vecmath"
)

// flatApplyGrads is the optimizer step of the mapper's earlier design, kept
// as applyGrads's reference: one Adam per parameter group, each stepping its
// group flattened into one vector at the group's learning rate, then the
// colours clamped and the vectors written back. opt holds the groups in the
// order mean, color, logit, scale.
func flatApplyGrads(c *gauss.Cloud, opt *[4]optim.Adam, grads *splat.Grads) {
	n := c.Len()
	means, meanG := make([]float64, 3*n), make([]float64, 3*n)
	colors, colorG := make([]float64, 3*n), make([]float64, 3*n)
	logits, logitG := make([]float64, n), make([]float64, n)
	scales, scaleG := make([]float64, n), make([]float64, n)
	for id := 0; id < n; id++ {
		g := c.At(id)
		means[3*id], means[3*id+1], means[3*id+2] = g.Mean.X, g.Mean.Y, g.Mean.Z
		colors[3*id], colors[3*id+1], colors[3*id+2] = g.Color.X, g.Color.Y, g.Color.Z
		logits[id], scales[id] = g.Logit, g.LogScale
		meanG[3*id], meanG[3*id+1], meanG[3*id+2] = grads.Mean[id].X, grads.Mean[id].Y, grads.Mean[id].Z
		colorG[3*id], colorG[3*id+1], colorG[3*id+2] = grads.Color[id].X, grads.Color[id].Y, grads.Color[id].Z
		logitG[id], scaleG[id] = grads.Logit[id], grads.LogScale[id]
	}
	opt[0].Step(means, meanG, lrMean)
	opt[1].Step(colors, colorG, lrColor)
	opt[2].Step(logits, logitG, lrLogit)
	opt[3].Step(scales, scaleG, lrScale)
	for id := 0; id < n; id++ {
		g := c.At(id)
		g.Mean = vecmath.Vec3{X: means[3*id], Y: means[3*id+1], Z: means[3*id+2]}
		g.Color = vecmath.Vec3{X: colors[3*id], Y: colors[3*id+1], Z: colors[3*id+2]}.Clamp(0, 1)
		g.Logit, g.LogScale = logits[id], scales[id]
	}
}

// interleaved returns the four group optimizers' moments in the mapper's
// layout, perGaussian per Gaussian (mean, colour, logit, log-scale), and
// their step counter, or -1 if the groups are at different steps.
func interleaved(opt *[4]optim.Adam) (m, v []float64, step int) {
	strides := [4]int{3, 3, 1, 1}
	step = -1
	for k := range opt {
		gm, gv, gs := opt[k].State()
		if k > 0 && gs != step {
			return nil, nil, -1
		}
		step = gs
		if k == 0 {
			m, v = make([]float64, perGaussian*len(gm)/3), make([]float64, perGaussian*len(gv)/3)
		}
		at := [4]int{0, 3, 6, 7}[k]
		for i := range gm {
			id, j := i/strides[k], i%strides[k]
			m[perGaussian*id+at+j], v[perGaussian*id+at+j] = gm[i], gv[i]
		}
	}
	return m, v, step
}

// gaussianBits returns a Gaussian's eight parameters as bit patterns.
func gaussianBits(g *gauss.Gaussian) [8]uint64 {
	return [8]uint64{
		math.Float64bits(g.Mean.X), math.Float64bits(g.Mean.Y), math.Float64bits(g.Mean.Z),
		math.Float64bits(g.LogScale),
		math.Float64bits(g.Color.X), math.Float64bits(g.Color.Y), math.Float64bits(g.Color.Z),
		math.Float64bits(g.Logit),
	}
}

// TestApplyGradsMatchesFlatSteps: the mapper's one Adam, stepping the
// Gaussians in place with each parameter at its kind's learning rate, is bit
// for bit the earlier design's four per-group optimizers (flatten → one Step
// per group → clamp → unflatten), moments included, on a map whose colours
// start outside [0, 1] and which Densify grows three times (every moment
// restarts). Midway the mapper is replaced by one restored from its exported
// state, once right after a step and once after a growth that no step has
// followed yet, and the restored mapper continues the reference's stream. The
// step is a chunked pass of the mapper's context, so the test runs once on
// its caller alone and once with a crew's helper serving that context, on a
// map of a few chunks and a part.
func TestApplyGradsMatchesFlatSteps(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 4, Seed: 1})
	for _, helped := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		vec := func(scale, offset float64) vecmath.Vec3 {
			return vecmath.Vec3{X: offset + scale*rng.Float64(), Y: offset + scale*rng.Float64(), Z: offset + scale*rng.Float64()}
		}
		m := newMapper(smallCfg())
		crew := splat.NewCrew()
		served := make(chan struct{})
		if helped {
			m.Ctx.Attach(crew)
			go func() {
				crew.Serve()
				close(served)
			}()
		}
		ref := gauss.NewCloud(0)
		var refOpt [4]optim.Adam
		for i := 0; i < 2*splat.ChunkSize+40; i++ {
			g := gauss.Gaussian{Mean: vec(4, -2), LogScale: rng.NormFloat64() - 3, Color: vec(2, -0.5), Logit: 3 * rng.NormFloat64()}
			m.cloud.Add(g)
			ref.Add(g)
		}
		grow := func(f *frame.Frame) {
			before := m.cloud.Len()
			if m.Densify(f, seq.Intr, f.GTPose) == 0 {
				t.Fatalf("helped %v: Densify added nothing from frame %d", helped, f.Index)
			}
			for id := before; id < m.cloud.Len(); id++ {
				ref.Add(*m.cloud.At(id))
			}
		}
		restore := func() {
			r := New(m.Cfg)
			r.Ctx = m.Ctx
			if err := r.ImportState(detached(m.ExportState())); err != nil {
				t.Fatalf("helped %v: %v", helped, err)
			}
			m = r
		}
		for it := 0; it < 16; it++ {
			switch it {
			case 4, 9:
				grow(seq.Frames[it/4])
			case 7:
				restore()
			case 13:
				grow(seq.Frames[3])
				restore()
			}
			n := m.cloud.Len()
			grads := &splat.Grads{
				Mean: make([]vecmath.Vec3, n), Color: make([]vecmath.Vec3, n),
				Logit: make([]float64, n), LogScale: make([]float64, n),
			}
			for id := 0; id < n; id++ {
				grads.Mean[id], grads.Color[id] = vec(2, -1), vec(2, -1)
				grads.Logit[id], grads.LogScale[id] = rng.NormFloat64(), rng.NormFloat64()
			}
			m.applyGrads(grads)
			flatApplyGrads(ref, &refOpt, grads)
			for id := 0; id < n; id++ {
				if got, want := gaussianBits(m.cloud.At(id)), gaussianBits(ref.At(id)); got != want {
					t.Fatalf("helped %v, iteration %d, Gaussian %d: in place %+v, reference %+v", helped, it, id, *m.cloud.At(id), *ref.At(id))
				}
			}
			gm, gv, gs := m.opt.State()
			wm, wv, ws := interleaved(&refOpt)
			if gs != ws || !sameBits(gm, wm) || !sameBits(gv, wv) {
				t.Fatalf("helped %v, iteration %d: the moments at step %d differ from the groups' at step %d", helped, it, gs, ws)
			}
		}
		if helped {
			crew.Dismiss()
			<-served
			m.Ctx.Attach(nil)
		}
		for id := 0; id < m.cloud.Len(); id++ {
			if c := m.cloud.At(id).Color; c.X < 0 || c.X > 1 || c.Y < 0 || c.Y > 1 || c.Z < 0 || c.Z > 1 {
				t.Fatalf("Gaussian %d's colour %v left [0, 1]", id, c)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMappingAllocBudget: on a fixed map, a warm mapper's mapping iterations
// allocate nothing — the render context keeps the gradients and contribution
// log, and Adam steps the Gaussians in place — and with detail only
// PackDetail's four packed sequences.
func TestMappingAllocBudget(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 32, Height: 24, Frames: 2, Seed: 1})
	f0, f1 := seq.Frames[0], seq.Frames[1]
	for _, tc := range []struct {
		scalarsOnly bool
		budget      float64
	}{{true, 0}, {false, 4}} {
		cfg := smallCfg()
		m := newMapper(cfg)
		m.ScalarsOnly = tc.scalarsOnly
		m.Densify(f0, seq.Intr, f0.GTPose)
		m.AddKeyframe(f0, 0, f0.GTPose)
		m.FullMapping(f0, seq.Intr, f0.GTPose)
		m.SelectiveMapping(f1, seq.Intr, f1.GTPose)
		if allocs := testing.AllocsPerRun(5, func() { m.SelectiveMapping(f1, seq.Intr, f1.GTPose) }); allocs > tc.budget {
			t.Errorf("ScalarsOnly %v: SelectiveMapping allocates %.1f times, budget %.0f", tc.scalarsOnly, allocs, tc.budget)
		}
		if allocs := testing.AllocsPerRun(5, func() { m.FullMapping(f0, seq.Intr, f0.GTPose) }); allocs > tc.budget {
			t.Errorf("ScalarsOnly %v: FullMapping allocates %.1f times, budget %.0f", tc.scalarsOnly, allocs, tc.budget)
		}
	}
}
