package bench

import (
	"fmt"
	"io"

	"ags/internal/hw/area"
	"ags/internal/hw/platform"
	"ags/internal/metrics"
	"ags/internal/scene"
)

func expFig15a() Experiment {
	return Experiment{
		ID: "fig15a", Paper: "Fig. 15a (server speedup)",
		Needs:  specsFor(scene.Names(), VarBaseline, VarAGS),
		Render: func(s *Suite, w io.Writer) error { return s.Fig15(w, true) },
	}
}

func expFig15b() Experiment {
	return Experiment{
		ID: "fig15b", Paper: "Fig. 15b (edge speedup)",
		Needs:  specsFor(scene.Names(), VarBaseline, VarAGS),
		Render: func(s *Suite, w io.Writer) error { return s.Fig15(w, false) },
	}
}

func expTable3() Experiment {
	return Experiment{
		ID: "table3", Paper: "Table 3 (area)",
		Render: (*Suite).Table3,
	}
}

func expFig16() Experiment {
	return Experiment{
		ID: "fig16", Paper: "Fig. 16 (energy efficiency)",
		Needs:  specsFor(scene.Names(), VarBaseline, VarAGS),
		Render: (*Suite).Fig16,
	}
}

func expFig17() Experiment {
	return Experiment{
		ID: "fig17", Paper: "Fig. 17 (per-task speedup)",
		Needs:  specsFor(scene.TUMNames(), VarBaseline, VarAGS),
		Render: (*Suite).Fig17,
	}
}

func expFig18() Experiment {
	return Experiment{
		ID: "fig18", Paper: "Fig. 18 (contribution ladder)",
		Needs:  specsFor(scene.TUMNames(), VarBaseline, VarMATOnly, VarAGS),
		Render: (*Suite).Fig18,
	}
}

func expFig23() Experiment {
	return Experiment{
		ID: "fig23", Paper: "Fig. 23 (Gaussian-SLAM generality)",
		Needs:  specsFor(scene.TUMNames(), VarGSLAMBase, VarGSLAMAGS),
		Render: (*Suite).Fig23,
	}
}

// Fig15 reproduces Fig. 15: end-to-end speedup of AGS over the GPUs and
// GSCore. server=true gives Fig. 15(a) (A100 class), false gives Fig. 15(b)
// (Xavier class). Results are normalized to the GPU, as in the paper.
func (s *Suite) Fig15(w io.Writer, server bool) error {
	var gpu platform.Platform
	var gsc platform.Platform
	var agsHW platform.Platform
	var title string
	if server {
		gpu, gsc, agsHW = platform.A100(), platform.GSCoreServer(), platform.AGSServer()
		title = "Fig. 15a: Speedup over A100 (normalized to GPU-Server)"
	} else {
		gpu, gsc, agsHW = platform.Xavier(), platform.GSCoreEdge(), platform.AGSEdge()
		title = "Fig. 15b: Speedup over AGX Xavier (normalized to GPU-Edge)"
	}
	t := NewTable(title, "Sequence", "GPU", "GSCore", "AGS")
	var gscAll, agsAll []float64
	for _, name := range scene.Names() {
		base, err := s.Run(Spec(name, VarBaseline))
		if err != nil {
			return err
		}
		ags, err := s.Run(Spec(name, VarAGS))
		if err != nil {
			return err
		}
		gpuT := platform.RunTotal(gpu, base.Result.Trace)
		gscT := platform.RunTotal(gsc, base.Result.Trace)
		agsT := platform.RunTotal(agsHW, ags.Result.Trace)
		spGsc := platform.Speedup(gpuT, gscT)
		spAgs := platform.Speedup(gpuT, agsT)
		gscAll = append(gscAll, spGsc)
		agsAll = append(agsAll, spAgs)
		t.AddRow(name, 1.0, spGsc, spAgs)
	}
	t.AddRow("GeoMean", 1.0, metrics.GeoMean(gscAll), metrics.GeoMean(agsAll))
	if server {
		t.AddNote("paper geomeans: AGS-Server 6.71x over A100, 5.41x over GSCore-Server")
	} else {
		t.AddNote("paper geomeans: AGS-Edge 17.12x over Xavier, 14.63x over GSCore-Edge")
	}
	t.Write(w)
	return nil
}

// Table3 reproduces Table 3: the AGS area breakdown.
func (s *Suite) Table3(w io.Writer) error {
	t := NewTable("Table 3: Area of AGS (mm^2, 28nm)",
		"Engine", "Component", "Edge", "Server")
	edge := area.Breakdown(area.Edge())
	server := area.Breakdown(area.Server())
	for i := range edge {
		t.AddRow(edge[i].Engine, edge[i].Component+" ("+edge[i].Remark+"/"+server[i].Remark+")",
			fmt.Sprintf("%.3f", edge[i].AreaMM2), fmt.Sprintf("%.3f", server[i].AreaMM2))
	}
	t.AddRow("Total", "", fmt.Sprintf("%.2f", area.Total(area.Edge())), fmt.Sprintf("%.2f", area.Total(area.Server())))
	t.AddNote("paper totals: 7.25 (Edge) / 14.38 (Server) mm^2")
	t.Write(w)
	return nil
}

// Fig16 reproduces Fig. 16: energy efficiency of AGS relative to the GPUs.
func (s *Suite) Fig16(w io.Writer) error {
	t := NewTable("Fig. 16: Energy efficiency (GPU energy / AGS energy)",
		"Sequence", "AGS-Server vs A100", "AGS-Edge vs Xavier")
	var srv, edg []float64
	for _, name := range scene.Names() {
		base, err := s.Run(Spec(name, VarBaseline))
		if err != nil {
			return err
		}
		ags, err := s.Run(Spec(name, VarAGS))
		if err != nil {
			return err
		}
		a100 := platform.RunTotal(platform.A100(), base.Result.Trace)
		xav := platform.RunTotal(platform.Xavier(), base.Result.Trace)
		srvE := platform.RunTotal(platform.AGSServer(), ags.Result.Trace)
		edgE := platform.RunTotal(platform.AGSEdge(), ags.Result.Trace)
		rs := a100.EnergyJ / srvE.EnergyJ
		re := xav.EnergyJ / edgE.EnergyJ
		srv = append(srv, rs)
		edg = append(edg, re)
		t.AddRow(name, rs, re)
	}
	t.AddRow("GeoMean", metrics.GeoMean(srv), metrics.GeoMean(edg))
	t.AddNote("paper: 22.58x (Server vs A100), 42.28x (Edge vs Xavier)")
	t.Write(w)
	return nil
}

// Fig17 reproduces Fig. 17: per-task speedup of AGS over the GPU for
// tracking and mapping separately.
func (s *Suite) Fig17(w io.Writer) error {
	t := NewTable("Fig. 17: Per-task speedup of AGS over GPU",
		"Sequence", "Tracking (Server)", "Tracking (Edge)", "Mapping (Server)", "Mapping (Edge)")
	var tS, tE, mS, mE []float64
	for _, name := range scene.TUMNames() {
		base, err := s.Run(Spec(name, VarBaseline))
		if err != nil {
			return err
		}
		ags, err := s.Run(Spec(name, VarAGS))
		if err != nil {
			return err
		}
		a100 := platform.RunTotal(platform.A100(), base.Result.Trace)
		xav := platform.RunTotal(platform.Xavier(), base.Result.Trace)
		srv := platform.RunTotal(platform.AGSServer(), ags.Result.Trace)
		edg := platform.RunTotal(platform.AGSEdge(), ags.Result.Trace)
		// Tracking on AGS includes the coarse estimator + refinement.
		trkSrv := a100.TrackNs / (srv.TrackNs + srv.CoarseNs + srv.CodecNs)
		trkEdg := xav.TrackNs / (edg.TrackNs + edg.CoarseNs + edg.CodecNs)
		mapSrv := a100.MapNs / srv.MapNs
		mapEdg := xav.MapNs / edg.MapNs
		tS, tE = append(tS, trkSrv), append(tE, trkEdg)
		mS, mE = append(mS, mapSrv), append(mE, mapEdg)
		t.AddRow(name, trkSrv, trkEdg, mapSrv, mapEdg)
	}
	t.AddRow("GeoMean", metrics.GeoMean(tS), metrics.GeoMean(tE), metrics.GeoMean(mS), metrics.GeoMean(mE))
	t.AddNote("paper: tracking speedup exceeds mapping speedup; edge exceeds server")
	t.Write(w)
	return nil
}

// Fig18 reproduces Fig. 18: the algorithm/architecture contribution ladder —
// GPU-Base, GPU-AGS, AGS-MAT, AGS-MAT+GCM, AGS-Full (normalized to GPU-Base).
func (s *Suite) Fig18(w io.Writer) error {
	t := NewTable("Fig. 18: Contribution analysis (speedup over GPU-Base, A100 class)",
		"Sequence", "GPU-Base", "GPU-AGS", "AGS-MAT", "AGS-MAT+GCM", "AGS-Full")
	var c1, c2, c3, c4 []float64
	for _, name := range scene.TUMNames() {
		base, err := s.Run(Spec(name, VarBaseline))
		if err != nil {
			return err
		}
		mat, err := s.Run(Spec(name, VarMATOnly))
		if err != nil {
			return err
		}
		full, err := s.Run(Spec(name, VarAGS))
		if err != nil {
			return err
		}
		gpuBase := platform.RunTotal(platform.A100(), base.Result.Trace)
		gpuAGS := platform.RunTotal(platform.A100().WithAGSAlgorithm(), full.Result.Trace)
		// AGS hardware without the GPE scheduler and without pipelining for
		// the intermediate points, per the paper's incremental ladder.
		hwBase := platform.AGSServer().WithScheduler(false).WithPipelining(false)
		agsMAT := platform.RunTotal(hwBase, mat.Result.Trace)
		agsMATGCM := platform.RunTotal(hwBase, full.Result.Trace)
		agsFull := platform.RunTotal(platform.AGSServer(), full.Result.Trace)
		s1 := platform.Speedup(gpuBase, gpuAGS)
		s2 := platform.Speedup(gpuBase, agsMAT)
		s3 := platform.Speedup(gpuBase, agsMATGCM)
		s4 := platform.Speedup(gpuBase, agsFull)
		c1, c2, c3, c4 = append(c1, s1), append(c2, s2), append(c3, s3), append(c4, s4)
		t.AddRow(name, 1.0, s1, s2, s3, s4)
	}
	t.AddRow("GeoMean", 1.0, metrics.GeoMean(c1), metrics.GeoMean(c2), metrics.GeoMean(c3), metrics.GeoMean(c4))
	t.AddNote("paper ladder: 1.0 -> 1.12 -> 2.81 -> 3.99 -> 7.14 (geomean, multiplicative steps 1.12/2.51/1.42/1.79)")
	t.Write(w)
	return nil
}

// Fig23 reproduces Fig. 23: AGS generality on the Gaussian-SLAM backbone.
func (s *Suite) Fig23(w io.Writer) error {
	t := NewTable("Fig. 23: AGS on the Gaussian-SLAM backbone (speedup over GPU-Server)",
		"Sequence", "GPU-Server", "AGS-Server")
	var sp []float64
	for _, name := range scene.TUMNames() {
		base, err := s.Run(Spec(name, VarGSLAMBase))
		if err != nil {
			return err
		}
		ags, err := s.Run(Spec(name, VarGSLAMAGS))
		if err != nil {
			return err
		}
		gpuT := platform.RunTotal(platform.A100(), base.Result.Trace)
		agsT := platform.RunTotal(platform.AGSServer(), ags.Result.Trace)
		v := platform.Speedup(gpuT, agsT)
		sp = append(sp, v)
		t.AddRow(name, 1.0, v)
	}
	t.AddRow("GeoMean", 1.0, metrics.GeoMean(sp))
	t.AddNote("paper: 5.11x geomean speedup on Gaussian-SLAM")
	t.Write(w)
	return nil
}
