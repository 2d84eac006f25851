package bench

import (
	"fmt"
	"io"

	"ags/internal/hw/platform"
	"ags/internal/slam"
)

// Sweep tables shared by Needs and Render, so the specs an experiment
// declares are exactly the bundles its renderer fetches.
var (
	fig19IterTs   = []int{2, 3, 5, 8, 12}
	fig20ThreshMs = []float64{0.65, 0.75, 0.80, 0.85, 0.90}
	fig21Mults    = []float64{1, 4, 8, 16, 32}
)

func fig19Spec(iterT int) RunSpec {
	return RunSpec{
		Seq: "Desk2", Variant: VarAGS, Key: fmt.Sprintf("iterT=%d", iterT),
		Override: func(c *slam.Config) { c.IterT = iterT },
	}
}

func fig20Spec(threshM float64) RunSpec {
	return RunSpec{
		Seq: "Desk", Variant: VarAGS, Key: fmt.Sprintf("threshM=%.2f", threshM),
		Override: func(c *slam.Config) { c.ThreshM = threshM },
	}
}

// threshNAt scales the default Thresh_N by the sweep multiplier, never below
// 1.
func threshNAt(def int, mult float64) int {
	tn := int(float64(def) * mult)
	if tn < 1 {
		tn = 1
	}
	return tn
}

// fig21Spec keys the Thresh_N sweep by multiplier rather than the resolved
// value so Needs does not have to know the suite's resolution; the override
// scales whatever default the derived config carries.
func fig21Spec(mult float64) RunSpec {
	return RunSpec{
		Seq: "Desk", Variant: VarAGS, Key: fmt.Sprintf("threshN=x%g", mult),
		Override: func(c *slam.Config) { c.Mapper.ThreshN = threshNAt(c.Mapper.ThreshN, mult) },
	}
}

func expFig19() Experiment {
	specs := []RunSpec{Spec("Desk2", VarBaseline)}
	for _, it := range fig19IterTs {
		specs = append(specs, fig19Spec(it))
	}
	return Experiment{
		ID: "fig19", Paper: "Fig. 19 (Iter_T sensitivity)",
		Needs:  specs,
		Render: (*Suite).Fig19,
	}
}

func expFig20() Experiment {
	var specs []RunSpec
	for _, tm := range fig20ThreshMs {
		specs = append(specs, fig20Spec(tm))
	}
	return Experiment{
		ID: "fig20", Paper: "Fig. 20 (Thresh_M sensitivity)",
		Needs:  specs,
		Render: (*Suite).Fig20,
	}
}

func expFig21() Experiment {
	var specs []RunSpec
	for _, mult := range fig21Mults {
		specs = append(specs, fig21Spec(mult))
	}
	return Experiment{
		ID: "fig21", Paper: "Fig. 21 (Thresh_N sensitivity)",
		Needs:  specs,
		Render: (*Suite).Fig21,
	}
}

// Fig19 reproduces Fig. 19: sensitivity of PSNR and speedup to Iter_T, the
// fine-grained refinement iteration count.
func (s *Suite) Fig19(w io.Writer) error {
	// Desk2 moves fast enough that the covisibility gate actually triggers
	// refinement; on near-static sequences Iter_T is never consumed.
	t := NewTable("Fig. 19: Sensitivity to Iter_T (Desk2)",
		"Iter_T", "PSNR (dB)", "Speedup vs A100")
	base := s.MustRun(Spec("Desk2", VarBaseline))
	gpuT := platform.RunTotal(platform.A100(), base.Result.Trace)
	for _, iterT := range fig19IterTs {
		b, err := s.Run(fig19Spec(iterT))
		if err != nil {
			return err
		}
		psnr, err := b.PSNR()
		if err != nil {
			return err
		}
		agsT := platform.RunTotal(platform.AGSServer(), b.Result.Trace)
		t.AddRow(iterT, psnr, platform.Speedup(gpuT, agsT))
	}
	t.AddNote("paper: larger Iter_T raises quality, lowers speedup; chosen Iter_T=20 of 200 (here scaled)")
	t.Write(w)
	return nil
}

// theoreticalSaving is the fraction of in-view mapping Gaussian-processing
// work that selective mapping skipped (skipped Gaussians over skipped plus
// processed, per iteration).
func theoreticalSaving(b *Bundle) float64 {
	var processed, skipped float64
	for _, f := range b.Result.Trace.Frames {
		if f.Map.Iters == 0 {
			continue
		}
		processed += float64(f.Map.Splats) / float64(f.Map.Iters)
		skipped += float64(f.SkippedGaussians)
	}
	if processed+skipped == 0 {
		return 0
	}
	return 100 * skipped / (processed + skipped)
}

// Fig20 reproduces Fig. 20: sensitivity to Thresh_M, the key-frame
// covisibility threshold.
func (s *Suite) Fig20(w io.Writer) error {
	t := NewTable("Fig. 20: Sensitivity to Thresh_M (Desk)",
		"Thresh_M (%)", "PSNR (dB)", "Theoretical saving (%)", "Non-key frames (%)")
	for _, tm := range fig20ThreshMs {
		b, err := s.Run(fig20Spec(tm))
		if err != nil {
			return err
		}
		psnr, err := b.PSNR()
		if err != nil {
			return err
		}
		tot := b.Result.Trace.Totals()
		nonKey := 100 * float64(tot.Frames-tot.KeyFrames) / float64(tot.Frames)
		t.AddRow(int(tm*100), psnr, theoreticalSaving(b), nonKey)
	}
	t.AddNote("paper sweeps 40-60%% around its chosen 50%%; our covisibility scale places the same operating range at 65-85%% (README: substitutions)")
	t.Write(w)
	return nil
}

// Fig21 reproduces Fig. 21: sensitivity to Thresh_N, the non-contributory
// pixel-count threshold (values scaled to this resolution like the default).
func (s *Suite) Fig21(w io.Writer) error {
	def := slam.DefaultConfig(s.Cfg.Width, s.Cfg.Height).Mapper.ThreshN
	t := NewTable("Fig. 21: Sensitivity to Thresh_N (Desk)",
		"Thresh_N", "PSNR (dB)", "Theoretical saving (%)")
	// Our pixel-scale splats put non-contributory counts in the
	// hundreds-to-thousands range (1-4 tiles of 256 pixels), so the
	// informative sweep sits above the paper's 450 operating point.
	for _, mult := range fig21Mults {
		b, err := s.Run(fig21Spec(mult))
		if err != nil {
			return err
		}
		psnr, err := b.PSNR()
		if err != nil {
			return err
		}
		t.AddRow(threshNAt(def, mult), psnr, theoreticalSaving(b))
	}
	t.AddNote("paper: higher Thresh_N -> fewer skipped Gaussians -> less saving, better quality; chosen 450 at 640x480")
	t.Write(w)
	return nil
}
