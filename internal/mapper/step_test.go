package mapper

import (
	"math"
	"math/rand"
	"testing"

	"ags/internal/gauss"
	"ags/internal/optim"
	"ags/internal/scene"
	"ags/internal/splat"
	"ags/internal/vecmath"
)

// flatApplyGrads is the optimizer step applyGrads replaced, kept as its
// reference: flatten the map into one vector per group, step each group's Adam
// over its vector, clamp the colours and write the vectors back. opt holds the
// groups in the order mean, color, logit, scale.
func flatApplyGrads(c *gauss.Cloud, opt [4]*optim.Adam, grads *splat.Grads) {
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
	opt[0].Step(means, meanG)
	opt[1].Step(colors, colorG)
	opt[2].Step(logits, logitG)
	opt[3].Step(scales, scaleG)
	for id := 0; id < n; id++ {
		g := c.At(id)
		g.Mean = vecmath.Vec3{X: means[3*id], Y: means[3*id+1], Z: means[3*id+2]}
		g.Color = vecmath.Vec3{X: colors[3*id], Y: colors[3*id+1], Z: colors[3*id+2]}.Clamp(0, 1)
		g.Logit, g.LogScale = logits[id], scales[id]
	}
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

// TestApplyGradsMatchesFlatSteps: stepping the Gaussians in place is bit for
// bit the flatten → four Steps → clamp → unflatten reference, moments
// included, on a map whose colours start outside [0, 1] and which grows
// midway (every group reinitialises). The step is a chunked pass of the
// mapper's context, so it runs once on its caller alone and once with a
// crew's helper serving that context, on a map of a few chunks and a part.
func TestApplyGradsMatchesFlatSteps(t *testing.T) {
	for _, helped := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		vec := func(scale, offset float64) vecmath.Vec3 {
			return vecmath.Vec3{X: offset + scale*rng.Float64(), Y: offset + scale*rng.Float64(), Z: offset + scale*rng.Float64()}
		}
		cfg := DefaultConfig()
		m := newMapper(cfg)
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
		refOpt := [4]*optim.Adam{optim.NewAdam(lrMean), optim.NewAdam(lrColor), optim.NewAdam(lrLogit), optim.NewAdam(lrScale)}
		add := func(k int) {
			for i := 0; i < k; i++ {
				g := gauss.Gaussian{Mean: vec(4, -2), LogScale: rng.NormFloat64() - 3, Color: vec(2, -0.5), Logit: 3 * rng.NormFloat64()}
				m.cloud.Add(g)
				ref.Add(g)
			}
		}
		add(2*splat.ChunkSize + 40)
		for it := 0; it < 12; it++ {
			if it == 6 {
				add(13)
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
			flatApplyGrads(ref, refOpt, grads)
			for id := 0; id < n; id++ {
				if got, want := gaussianBits(m.cloud.At(id)), gaussianBits(ref.At(id)); got != want {
					t.Fatalf("helped %v, iteration %d, Gaussian %d: in place %+v, reference %+v", helped, it, id, *m.cloud.At(id), *ref.At(id))
				}
			}
			for i, a := range []*optim.Adam{&m.optMean, &m.optColor, &m.optLogit, &m.optScale} {
				gm, gv, gs := a.State()
				wm, wv, ws := refOpt[i].State()
				if gs != ws || !sameBits(gm, wm) || !sameBits(gv, wv) {
					t.Fatalf("helped %v, iteration %d: group %d's moments differ from the reference's", helped, it, i)
				}
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
