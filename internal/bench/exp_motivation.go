package bench

import (
	"io"

	"ags/internal/covis"
	"ags/internal/hw/platform"
	"ags/internal/scene"
	"ags/internal/splat"
	"ags/internal/tracker"
	"ags/internal/vecmath"
)

func expFig3() Experiment {
	return expDef{
		id: "fig3", paper: "Fig. 3 (tracking vs mapping time)",
		needs:  specsFor(scene.TUMNames(), VarBaseline),
		render: (*Suite).Fig3,
	}
}

func expFig4() Experiment {
	return expDef{
		id: "fig4", paper: "Fig. 4 (accuracy vs iterations by FC)",
		needs:  specsFor([]string{"Desk"}, VarBaseline),
		render: (*Suite).Fig4,
	}
}

func expFig5() Experiment {
	return expDef{
		id: "fig5", paper: "Fig. 5 (non-contributory Gaussians)",
		needs:  specsFor(scene.TUMNames(), VarBaseline),
		render: (*Suite).Fig5,
	}
}

func expFig6() Experiment {
	return expDef{
		id: "fig6", paper: "Fig. 6 (contribution similarity by FC level)",
		needs:  specsFor([]string{"Desk", "Desk2"}, VarBaseline),
		render: (*Suite).Fig6,
	}
}

func expFig22() Experiment {
	return expDef{
		id: "fig22", paper: "Fig. 22 (FC distribution)",
		needs:  seqSpecs(scene.TUMNames()),
		render: (*Suite).Fig22,
	}
}

// Fig3 reproduces Fig. 3: baseline execution-time split between tracking and
// mapping per frame (GPU model on the baseline trace).
func (s *Suite) Fig3(w io.Writer) error {
	t := NewTable("Fig. 3: Baseline time per frame, tracking vs mapping (A100 model, ms)",
		"Sequence", "Tracking", "Mapping", "Tracking share %")
	names := scene.TUMNames()
	var shares []float64
	for _, name := range names {
		b, err := s.Run(Spec(name, VarBaseline))
		if err != nil {
			return err
		}
		tot := platform.RunTotal(platform.A100(), b.Result.Trace)
		n := float64(len(b.Result.Poses))
		trackMs := tot.TrackNs / n * 1e-6
		mapMs := tot.MapNs / n * 1e-6
		share := 100 * tot.TrackNs / (tot.TrackNs + tot.MapNs)
		shares = append(shares, share)
		t.AddRow(name, trackMs, mapMs, share)
	}
	var mean float64
	for _, v := range shares {
		mean += v
	}
	t.AddRow("Mean", "", "", mean/float64(len(shares)))
	t.AddNote("paper: tracking consumes 83%% of baseline time")
	t.Write(w)
	return nil
}

// Fig4 reproduces Fig. 4: tracking accuracy as training iterations shrink,
// split by frame covisibility. For each frame of the Desk baseline run we
// re-track from the same initialization with reduced iteration budgets, with
// the refiner the run tracked with (its learning rate, the sparse lattice),
// and report accuracy relative to the full budget.
func (s *Suite) Fig4(w io.Writer) error {
	spec := Spec("Desk", VarBaseline)
	b := s.MustRun(spec)
	seq := b.Seq
	det := covis.NewDetector()
	ref := tracker.NewGSRefiner()
	ref.LR = s.slamConfig(spec.Variant, spec.Override).TrackLR
	ref.Workers = s.Cfg.Workers
	ref.Ctx = splat.NewRenderContext()

	// Classify frames by adjacent covisibility (median split).
	type frameCase struct {
		idx  int
		high bool
	}
	var cases []frameCase
	var scores []float64
	for i := 1; i < len(seq.Frames); i++ {
		sc, _, err := det.Compare(seq.Frames[i-1].Color, seq.Frames[i].Color)
		if err != nil {
			return err
		}
		scores = append(scores, float64(sc))
	}
	med := median(scores)
	// Subsample frames: the sweep re-tracks each case at 5 budgets.
	for i := 1; i < len(seq.Frames); i += 2 {
		cases = append(cases, frameCase{idx: i, high: scores[i-1] >= med})
	}

	// The budget must reach down to where incomplete convergence shows: the
	// last points give only 1-2 optimizer steps to cover the inter-frame
	// motion (larger on low-covisibility frames).
	iterSet := []int{s.Cfg.TrackIters, 6, 3, 2, 1}
	t := NewTable("Fig. 4: Accuracy (%) vs tracking iterations, by frame covisibility",
		"Iterations", "High-FC frames", "Low-FC frames")

	// Per-frame full-budget error is the accuracy reference.
	errAt := func(idx, iters int) float64 {
		f := seq.Frames[idx]
		init := b.Result.Poses[idx-1] // previous estimated pose
		pose, _ := ref.Refine(b.Result.Cloud, seq.Intr, f, init, iters)
		return pose.TranslationTo(f.GTPose)
	}
	fullErr := map[int]float64{}
	for _, c := range cases {
		fullErr[c.idx] = errAt(c.idx, iterSet[0])
	}
	for _, iters := range iterSet {
		var accHigh, accLow, nHigh, nLow float64
		for _, c := range cases {
			// Not clamped: above 100, the smaller budget landed closer to
			// the ground truth than the full one.
			acc := 100 * (fullErr[c.idx] + 1e-4) / (errAt(c.idx, iters) + 1e-4)
			if c.high {
				accHigh += acc
				nHigh++
			} else {
				accLow += acc
				nLow++
			}
		}
		t.AddRow(iters, accHigh/maxf(nHigh, 1), accLow/maxf(nLow, 1))
	}
	t.AddNote("accuracy is 100 x (full-budget error + 0.1 mm) / (error + 0.1 mm); above 100, fewer iterations landed closer to the ground truth")
	t.AddNote("paper: low-FC frames lose up to 6.7%% accuracy; high-FC frames barely degrade")
	t.Write(w)
	return nil
}

// Fig5 reproduces Fig. 5: the fraction of Gaussians in the Gaussian tables
// that contribute to no pixel.
func (s *Suite) Fig5(w io.Writer) error {
	t := NewTable("Fig. 5: Gaussian contribution during rendering (%)",
		"Sequence", "Non-contributory", "Contributory")
	names := scene.TUMNames()
	var fracs []float64
	for _, name := range names {
		b, err := s.Run(Spec(name, VarBaseline))
		if err != nil {
			return err
		}
		var nc, tot int
		for fi := len(b.Seq.Frames) / 2; fi < len(b.Seq.Frames); fi += 4 {
			ids, ttl := contributionStats(b, fi)
			nc += len(ids)
			tot += ttl
		}
		frac := 100 * float64(nc) / maxf(float64(tot), 1)
		fracs = append(fracs, frac)
		t.AddRow(name, frac, 100-frac)
	}
	var mean float64
	for _, v := range fracs {
		mean += v
	}
	t.AddRow("Mean", mean/float64(len(fracs)), 100-mean/float64(len(fracs)))
	t.AddNote("paper: 85.1%% of table-assigned Gaussians do not affect any pixel")
	t.Write(w)
	return nil
}

// Fig6 reproduces Fig. 6: how similar the non-contributory sets of adjacent
// frames are, grouped by covisibility level.
func (s *Suite) Fig6(w io.Writer) error {
	t := NewTable("Fig. 6: Contribution similarity between adjacent frames (%) by FC level",
		"Level", "Desk", "Desk2")
	det := covis.NewDetector()
	type acc struct{ sum, n float64 }
	sims := map[string]map[covis.Level]*acc{}
	for _, name := range []string{"Desk", "Desk2"} {
		b, err := s.Run(Spec(name, VarBaseline))
		if err != nil {
			return err
		}
		sims[name] = map[covis.Level]*acc{}
		// Frame pairs at several gaps populate the whole covisibility range
		// (adjacent pairs cluster at the top levels).
		for _, gap := range []int{1, 2, 4, 8, 12} {
			for fi := gap; fi < len(b.Seq.Frames); fi += maxInt(gap, 3) {
				sc, _, err := det.Compare(b.Seq.Frames[fi-gap].Color, b.Seq.Frames[fi].Color)
				if err != nil {
					return err
				}
				lvl := covis.LevelOf(sc)
				prevIDs, _ := contributionStats(b, fi-gap)
				curIDs, _ := contributionStats(b, fi)
				if len(prevIDs) == 0 {
					continue
				}
				inter := 0
				//ags:allow(maprange, integer count of set intersection: every visit order yields the same total)
				for id := range prevIDs {
					if curIDs[id] {
						inter++
					}
				}
				a := sims[name][lvl]
				if a == nil {
					a = &acc{}
					sims[name][lvl] = a
				}
				a.sum += 100 * float64(inter) / float64(len(prevIDs))
				a.n++
			}
		}
	}
	for lvl := covis.Level(1); lvl <= 5; lvl++ {
		row := []interface{}{int(lvl)}
		for _, name := range []string{"Desk", "Desk2"} {
			if a := sims[name][lvl]; a != nil && a.n > 0 {
				row = append(row, a.sum/a.n)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: level-5 FC keeps >80%% of non-contributory Gaussians unchanged")
	t.Write(w)
	return nil
}

// Fig22 reproduces Fig. 22: the distribution of adjacent-frame covisibility
// bands per sequence (the headroom AGS exploits).
func (s *Suite) Fig22(w io.Writer) error {
	t := NewTable("Fig. 22: Adjacent-frame covisibility distribution (%)",
		"Sequence", "High", "Medium", "Low")
	det := covis.NewDetector()
	names := scene.TUMNames()
	var highShare []float64
	for _, name := range names {
		seq := s.Sequence(name)
		counts := map[string]int{}
		for i := 1; i < len(seq.Frames); i++ {
			sc, _, err := det.Compare(seq.Frames[i-1].Color, seq.Frames[i].Color)
			if err != nil {
				return err
			}
			counts[covis.Band(sc)]++
		}
		n := float64(len(seq.Frames) - 1)
		h := 100 * float64(counts["High"]) / n
		m := 100 * float64(counts["Medium"]) / n
		l := 100 * float64(counts["Low"]) / n
		highShare = append(highShare, h)
		t.AddRow(name, h, m, l)
	}
	var mean float64
	for _, v := range highShare {
		mean += v
	}
	t.AddRow("Mean high", mean/float64(len(highShare)), "", "")
	t.AddNote("paper: 63.8%% of adjacent frames exhibit high covisibility")
	t.Write(w)
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	cp := append([]float64(nil), v...)
	for i := 0; i < len(cp); i++ {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var _ = vecmath.Clamp
