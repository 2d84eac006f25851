// Command ags-slam runs one SLAM configuration over one synthetic sequence
// and reports accuracy, reconstruction quality and modeled platform times.
//
// Usage:
//
//	ags-slam -seq Desk -algo ags
//	ags-slam -seq Room -algo baseline -frames 60 -w 96 -h 72
//	ags-slam -seq Desk -algo droid   # coarse tracking only (Table 4)
//	ags-slam -seq Desk -algo ags -sessions 4   # concurrent streams, one server
//	ags-slam -seq Desk -snapshot run.snap -snapshot-at 12   # serialize mid-stream
//	ags-slam -seq Desk -resume run.snap                     # continue it; digests match
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"ags/internal/hw/platform"
	"ags/internal/scene"
	"ags/internal/slam"
)

func main() {
	var (
		seqName  = flag.String("seq", "Desk", "sequence name (see -listseq)")
		algo     = flag.String("algo", "ags", "baseline | ags | mat | gcm | droid")
		width    = flag.Int("w", 64, "frame width")
		height   = flag.Int("h", 48, "frame height")
		frames   = flag.Int("frames", 24, "frames in the sequence")
		iters    = flag.Int("iters", 30, "baseline tracking iterations (N_T)")
		listSeq  = flag.Bool("listseq", false, "list sequence names and exit")
		sessions = flag.Int("sessions", 1, "run N copies of the sequence as concurrent slam.Server sessions (digest-asserted against a sequential run)")

		snapPath   = flag.String("snapshot", "", "write a binary session snapshot to this file")
		snapAt     = flag.Int("snapshot-at", 0, "take the snapshot after this many frames (0 = after the last frame)")
		resumePath = flag.String("resume", "", "restore the run from this snapshot and process the remaining frames (config flags come from the snapshot)")
	)
	flag.Parse()

	if *listSeq {
		for _, n := range scene.Names() {
			fmt.Println(n)
		}
		return
	}

	if err := checkRunFlags(*sessions, *iters, *resumePath, *snapPath, *snapAt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg, err := slam.AlgorithmConfig(*algo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-algo: %v\n", err)
		os.Exit(2)
	}
	cfg.TrackIters = *iters

	fmt.Printf("generating %s (%dx%d, %d frames)...\n", *seqName, *width, *height, *frames)
	seq, err := scene.Generate(*seqName, scene.Config{Width: *width, Height: *height, Frames: *frames, Seed: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *sessions > 1 {
		if err := runSessions(cfg, seq, *sessions); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("running %s pipeline...\n", *algo)
	start := time.Now()
	var sys *slam.System
	startIdx := 0
	if *resumePath != "" {
		sf, err := os.Open(*resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sys, err = slam.Restore(sf)
		sf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		startIdx = sys.FrameCount()
		cfg = sys.Cfg // the snapshot's config governs the continuation
		fmt.Printf("  restored %s at frame %d\n", *resumePath, startIdx)
		if startIdx > len(seq.Frames) {
			fmt.Fprintf(os.Stderr, "snapshot holds %d frames but the sequence has %d\n", startIdx, len(seq.Frames))
			os.Exit(1)
		}
	} else {
		sys = slam.New(cfg, seq.Intr)
	}
	if err := checkSnapshotAt(*snapAt, *snapPath, startIdx, len(seq.Frames)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	writeSnapshot := func() {
		sf, err := os.Create(*snapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sys.Snapshot(sf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sf.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  snapshot written to %s at frame %d\n", *snapPath, sys.FrameCount())
	}
	// Nothing reads the map between frames (a snapshot joins no mapping), so
	// every frame is tracked beside the previous frame's mapping, as in any
	// other venue, and the digest is theirs.
	for i := startIdx; i < len(seq.Frames); i++ {
		if err := sys.ProcessFrame(seq.Frames[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *snapAt > 0 && sys.FrameCount() == *snapAt {
			writeSnapshot()
		}
	}
	if *snapPath != "" && *snapAt <= 0 {
		writeSnapshot()
	}
	res := sys.Finish(*seqName)
	sys.Close()
	elapsed := time.Since(start)
	// The per-frame history covers the frames this run processed: those after
	// the snapshot, for a resumed run. ATE and the digest cover the stream.
	ran := *seq
	ran.Frames = seq.Frames[startIdx:]
	for i := range res.Trace.Frames {
		ft := &res.Trace.Frames[i]
		inf := ""
		if ft.CoarseOnly {
			inf += " coarse-only"
		}
		if ft.IsKeyFrame {
			inf += " keyframe"
		}
		fmt.Printf("  frame %2d: FC %.2f%s\n", ran.Frames[i].Index, ft.Covisibility, inf)
	}

	ate, err := res.ATERMSECm()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	psnr := math.NaN()
	if len(ran.Frames) > 0 {
		if psnr, err = slam.EvaluatePSNR(res, &ran, 2); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	tot := res.Trace.Totals()
	fmt.Printf("\nresults for %s / %s:\n", *seqName, *algo)
	if startIdx > 0 {
		fmt.Printf("  (ATE and digest over all %d frames, the rest over the %d after the restore)\n", res.Frames, len(ran.Frames))
	}
	fmt.Printf("  ATE RMSE           %.2f cm\n", ate)
	fmt.Printf("  PSNR               %.2f dB\n", psnr)
	dig := res.Digest()
	fmt.Printf("  gaussians          %d\n", res.Cloud.Len())
	fmt.Printf("  digest             %x\n", dig[:8])
	fmt.Printf("  key frames         %d / %d\n", tot.KeyFrames, tot.Frames)
	fmt.Printf("  coarse-only frames %d\n", tot.CoarseOnly)
	fmt.Printf("  track iterations   %d\n", tot.TrackIters)
	fmt.Printf("  map iterations     %d\n", tot.MapIters)
	fmt.Printf("  wall time          %s (%.2f s/frame in Go)\n", elapsed.Round(time.Millisecond), elapsed.Seconds()/float64(max(tot.Frames, 1)))

	// A resumed run models the frames it processed, the ones its trace holds.
	switch {
	case tot.Frames == 0:
		fmt.Printf("\nmodeled per-frame latency: none, the run processed no frame after the snapshot's %d\n", startIdx)
		return
	case startIdx > 0:
		fmt.Printf("\nmodeled per-frame latency (frames %d-%d, processed after the restore):\n", startIdx, res.Frames-1)
	default:
		fmt.Printf("\nmodeled per-frame latency:\n")
	}
	for _, pl := range []platform.Platform{platform.A100(), platform.Xavier(), platform.AGSServer(), platform.AGSEdge()} {
		b := platform.RunTotal(pl, res.Trace)
		fmt.Printf("  %-12s %8.3f ms/frame  (%.2f J total)\n", pl.Name(), b.TotalNs/float64(tot.Frames)*1e-6, b.EnergyJ)
	}
}

// checkRunFlags refuses the flag values that would otherwise be ignored or
// silently mean something else: -sessions below 1; -sessions above 1 together
// with -resume, -snapshot or -snapshot-at, which only a single run reads;
// and a negative -iters (no tracking iterations).
func checkRunFlags(sessions, iters int, resume, snapshot string, snapshotAt int) error {
	var errs []error
	switch {
	case sessions < 1:
		errs = append(errs, fmt.Errorf("-sessions %d is out of range: want 1 or more", sessions))
	case sessions > 1 && (resume != "" || snapshot != "" || snapshotAt != 0):
		errs = append(errs, fmt.Errorf("-sessions %d runs fresh streams: -resume, -snapshot and -snapshot-at want -sessions 1", sessions))
	}
	if iters < 0 {
		errs = append(errs, fmt.Errorf("-iters %d is out of range: want 0 or more", iters))
	}
	return errors.Join(errs...)
}

// checkSnapshotAt refuses a -snapshot-at the run would never reach: one
// without -snapshot, one below 0, and one outside the frames the run
// processes, which follow the resumed snapshot's frame count (0 when the run
// starts fresh) up to the sequence's last frame. 0 takes the snapshot after
// the last frame.
func checkSnapshotAt(at int, path string, resumed, frames int) error {
	switch {
	case at == 0:
		return nil
	case path == "":
		return fmt.Errorf("-snapshot-at %d needs -snapshot", at)
	case resumed >= frames:
		return fmt.Errorf("-snapshot-at %d: the run processes no frame after %d, so only 0 (after the last frame) is valid", at, resumed)
	case at <= resumed || at > frames:
		return fmt.Errorf("-snapshot-at %d is outside the run's frames: want %d..%d, or 0 for after the last frame", at, resumed+1, frames)
	}
	return nil
}

// runSessions streams n copies of the sequence as concurrent sessions on one
// slam.Server and checks every session's Result digest against a sequential
// slam.Run — the multi-tenant serving mode, with the bounded context pool
// shared across streams.
func runSessions(cfg slam.Config, seq *scene.Sequence, n int) error {
	fmt.Printf("sequential reference run...\n")
	ref, err := slam.Run(cfg, seq)
	if err != nil {
		return err
	}
	refDigest := ref.Digest()

	fmt.Printf("running %d concurrent sessions on one server...\n", n)
	srv := slam.NewServer(slam.ServerConfig{ContextCapacity: n})
	results := make([]*slam.Result, n)
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// All sessions carry the sequence's name: the Result label names
			// the data, and the digest (which covers it) stays comparable.
			results[i], errs[i] = srv.Run(cfg, seq)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return fmt.Errorf("session %d: %w", i, errs[i])
		}
		if results[i].Digest() != refDigest {
			return fmt.Errorf("session %d: result diverged from the sequential run", i)
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}

	ate, err := ref.ATERMSECm()
	if err != nil {
		return err
	}
	st := srv.PoolStats()
	frames := n * len(seq.Frames)
	fmt.Printf("\nresults for %d sessions over %s:\n", n, seq.Name)
	fmt.Printf("  digests            all %d sessions identical to sequential run\n", n)
	fmt.Printf("  ATE RMSE           %.2f cm (per stream)\n", ate)
	fmt.Printf("  throughput         %.2f frames/s (%d frames in %s)\n",
		float64(frames)/elapsed.Seconds(), frames, elapsed.Round(time.Millisecond))
	fmt.Printf("  context pool       %d cap, %d hits / %d misses (%.0f%% hit rate), %d evictions, %.1f KB resident\n",
		st.Capacity, st.Hits, st.Misses, 100*st.HitRate(), st.Evictions, float64(st.ResidentBytes)/1024)
	return nil
}
