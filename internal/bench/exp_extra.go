package bench

import (
	"fmt"
	"io"
	"math"

	"ags/internal/codec"
	"ags/internal/hw/dram"
	"ags/internal/hw/engines"
	"ags/internal/hw/platform"
	"ags/internal/hw/trace"
	"ags/internal/metrics"
	"ags/internal/scene"
)

// Extra (non-paper) ablations of this reproduction's own design choices.

func expAblCodec() Experiment {
	return Experiment{
		ID: "abl-codec", Paper: "Extra: ME search ablation",
		Needs:  []RunSpec{SeqSpec("Desk")},
		Render: (*Suite).AblCodec,
	}
}

func expAblTables() Experiment {
	return Experiment{
		ID: "abl-tables", Paper: "Extra: logging-buffer capacity sweep",
		Needs:  []RunSpec{Spec("Desk", VarBaseline)},
		Render: (*Suite).AblTables,
	}
}

func expAblOverlap() Experiment {
	return Experiment{
		ID: "abl-overlap", Paper: "Extra: pipelining/scheduler split",
		Needs:  specsFor(scene.TUMNames(), VarAGS),
		Render: (*Suite).AblOverlap,
	}
}

// AblCodec compares the two motion-estimation searches: exhaustive full
// search (what a quality-oriented encoder does) vs the NTSS logarithmic
// search (what a real-time hardware encoder does), in both cost and the
// covisibility signal they produce.
func (s *Suite) AblCodec(w io.Writer) error {
	t := NewTable("Ablation: ME search strategy (Desk, adjacent frames)",
		"Search", "SAD ops/frame", "Sum min-SAD (mean)", "Covis corr. w/ full")
	seq := s.Sequence("Desk")
	type stats struct {
		ops    int64
		sumSAD float64
		scores []float64
	}
	collect := func(threeStep bool) (stats, error) {
		var st stats
		cfg := codec.DefaultConfig()
		cfg.ThreeStep = threeStep
		for i := 1; i < len(seq.Frames); i++ {
			res, err := codec.MotionEstimate(seq.Frames[i-1].Color, seq.Frames[i].Color, cfg)
			if err != nil {
				return st, err
			}
			st.ops += res.SADOps
			st.sumSAD += float64(res.SumMinSAD())
			st.scores = append(st.scores, float64(res.SumMinSAD())/float64(res.MaxPossibleSAD()))
		}
		n := int64(len(seq.Frames) - 1)
		st.ops /= n
		st.sumSAD /= float64(n)
		return st, nil
	}
	full, err := collect(false)
	if err != nil {
		return err
	}
	ntss, err := collect(true)
	if err != nil {
		return err
	}
	t.AddRow("Full search", full.ops, full.sumSAD, 1.0)
	t.AddRow("NTSS", ntss.ops, ntss.sumSAD, correlation(full.scores, ntss.scores))
	t.AddNote("NTSS must track full search's covisibility signal at a fraction of the ops")
	t.Write(w)
	return nil
}

// AblTables sweeps the GS logging buffer capacity, showing how much of the
// hot/cold optimization survives smaller on-chip tables.
func (s *Suite) AblTables(w io.Writer) error {
	b, err := s.Run(Spec("Desk", VarBaseline))
	if err != nil {
		return err
	}
	var tiles *trace.TileLists
	for i := len(b.Result.Trace.Frames) - 1; i >= 0; i-- {
		if f := &b.Result.Trace.Frames[i]; f.IsKeyFrame && f.Map.RepTileLists.NumTiles() > 0 {
			tiles = &f.Map.RepTileLists
			break
		}
	}
	if tiles == nil {
		return fmt.Errorf("bench: no logging stream in trace")
	}
	t := NewTable("Ablation: GS logging buffer capacity (Desk, last key frame)",
		"Buffer entries", "DRAM accesses", "vs naive (%)")
	spec := dram.LPDDR4()
	var naive int64
	for _, cap := range []int{0, 64, 256, 512, 1024, 4096} {
		p := engines.TableParams{HotEntries: cap, EntryBytes: 8, HotWindowTiles: 8}
		res := engines.SimulateLogging(tiles, p, spec)
		if naive == 0 {
			naive = res.NaiveAccesses
		}
		t.AddRow(cap, res.OptAccesses, 100*float64(res.OptAccesses)/float64(naive))
	}
	t.AddNote("paper sizes the logging table at 4KB (512 entries, Edge) / 8KB (1024, Server)")
	t.Write(w)
	return nil
}

// AblOverlap isolates the engine-level pipelining (Fig. 9) and GPE scheduler
// contributions on the AGS traces.
func (s *Suite) AblOverlap(w io.Writer) error {
	t := NewTable("Ablation: pipelining and GPE scheduler (AGS-Server, speedup vs both off)",
		"Sequence", "+pipelining", "+scheduler", "+both")
	var p1, p2, p3 []float64
	for _, name := range scene.TUMNames() {
		b, err := s.Run(Spec(name, VarAGS))
		if err != nil {
			return err
		}
		off := platform.RunTotal(platform.AGSServer().WithScheduler(false).WithPipelining(false), b.Result.Trace)
		pipe := platform.RunTotal(platform.AGSServer().WithScheduler(false), b.Result.Trace)
		sched := platform.RunTotal(platform.AGSServer().WithPipelining(false), b.Result.Trace)
		both := platform.RunTotal(platform.AGSServer(), b.Result.Trace)
		s1, s2, s3 := platform.Speedup(off, pipe), platform.Speedup(off, sched), platform.Speedup(off, both)
		p1, p2, p3 = append(p1, s1), append(p2, s2), append(p3, s3)
		t.AddRow(name, s1, s2, s3)
	}
	t.AddRow("GeoMean", metrics.GeoMean(p1), metrics.GeoMean(p2), metrics.GeoMean(p3))
	t.AddNote("pipelining dominates at this workload scale; scheduler gains grow with per-pixel skew")
	t.Write(w)
	return nil
}

// correlation returns the Pearson correlation of two equal-length series.
func correlation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}
