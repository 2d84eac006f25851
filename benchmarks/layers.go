package main

import (
	"bytes"
	"fmt"

	"ags/internal/camera"
	"ags/internal/codec"
	"ags/internal/covis"
	"ags/internal/fleet"
	"ags/internal/frame"
	"ags/internal/hw/platform"
	"ags/internal/mapper"
	"ags/internal/scene"
	"ags/internal/slam"
	"ags/internal/splat"
	"ags/internal/tracker"
	"ags/internal/vecmath"
)

// layers runs the traced pass's probes and derives the per-layer metrics.
// untraced are the timed repetitions (tracing off), traced the one repetition
// run under spans. Every probe calls a module's public functions on the
// workload's own frames, poses and final map.
func (r *run) layers(refs []*reference, untraced []repSample, traced repSample) error {
	frames := float64(r.w.totalFrames())

	r.setCounts(refs)
	r.setSimulated(refs)
	r.setFrameClasses(refs, append(untraced[:len(untraced):len(untraced)], traced))
	if err := r.probeModules(refs[0]); err != nil {
		return err
	}
	router, err := r.venues(refs[0])
	if err != nil {
		return err
	}
	// A fleet workload reports its own streams' serving numbers; the others
	// report the router venue pass over their stream's prefix.
	serving := router
	if traced.fleet != nil {
		serving = traced.fleet
	}
	r.setServing(serving)

	var mallocs []float64
	for _, s := range untraced {
		mallocs = append(mallocs, float64(s.mem.mallocs))
	}
	r.set("slam.mallocs_per_frame", median(mallocs)/frames, "count")

	// Tracing overhead: the traced repetition against the untraced ones, over
	// the same intervals.
	var tracedMs float64
	for _, b := range traced.blocks {
		tracedMs += sum(b)
	}
	var untracedMs []float64
	for _, s := range untraced {
		var t float64
		for _, b := range s.blocks {
			t += sum(b)
		}
		untracedMs = append(untracedMs, t)
	}
	r.set("trace.overhead_frac", tracedMs/median(untracedMs)-1, "frac")
	return nil
}

// setCounts reports what the pipeline counted about its own work: exact,
// repeatable numbers taken from the reference runs' results.
func (r *run) setCounts(refs []*reference) {
	run := mergedTrace(refs)
	tot := run.Totals()
	var skipped, active, slots float64
	for _, ft := range run.Frames {
		if ft.NumGaussians > 0 {
			skipped += float64(ft.SkippedGaussians) / float64(ft.NumGaussians)
		}
	}
	for _, ref := range refs {
		active += float64(ref.rep.res.Cloud.NumActive())
		slots += float64(ref.rep.res.Cloud.Len())
	}
	n := float64(tot.Frames)
	r.set("codec.sad_ops_per_frame", float64(tot.SADOps)/n, "count")
	r.set("slam.key_frame_frac", float64(tot.KeyFrames)/n, "frac")
	r.set("slam.coarse_only_frac", float64(tot.CoarseOnly)/n, "frac")
	r.set("tracker.coarse_macs_per_frame", float64(tot.CoarseMACs)/n, "count")
	r.set("tracker.refine_iters_per_frame", float64(tot.TrackIters)/n, "count")
	r.set("splat.alpha_ops_per_frame", float64(tot.AlphaOps)/n, "count")
	r.set("splat.blend_ops_per_frame", float64(tot.BlendOps)/n, "count")
	r.set("splat.backward_ops_per_frame", float64(tot.BackwardOps)/n, "count")
	r.set("splat.tile_entries_per_frame", float64(tot.TileEntries)/n, "count")
	r.set("mapper.map_iters_per_frame", float64(tot.MapIters)/n, "count")
	r.set("mapper.skipped_gauss_frac", skipped/n, "frac")
	r.set("mapper.pruned_total", float64(tot.PrunedGaussians), "count")
	r.set("mapper.compacted_slots", float64(tot.CompactedSlots), "count")
	r.set("gauss.active_final", active, "count")
	r.set("gauss.slots_final", slots, "count")
}

// setSimulated reports the accelerator model's split of the reference
// traces: simulated time, not host time, except hw.sim_host_ms.
func (r *run) setSimulated(refs []*reference) {
	run := mergedTrace(refs)
	var edge platform.Breakdown
	hostMs := minTime(3, func() { edge = platform.RunTotal(platform.AGSEdge(), run) })
	xavier := platform.RunTotal(platform.Xavier(), run)
	n := float64(r.w.totalFrames())
	r.set("hw.sim_ms.codec", edge.CodecNs/n/1e6, "ms")
	r.set("hw.sim_ms.coarse", edge.CoarseNs/n/1e6, "ms")
	r.set("hw.sim_ms.track", edge.TrackNs/n/1e6, "ms")
	r.set("hw.sim_ms.map", edge.MapNs/n/1e6, "ms")
	r.set("hw.sim_speedup_vs_xavier", platform.Speedup(xavier, edge), "x")
	r.set("hw.sim_energy_mj_per_frame", edge.EnergyJ*1000/n, "mJ")
	r.set("hw.sim_host_ms", hostMs, "ms")
}

// setFrameClasses splits frame time by what the pipeline decided about the
// frame: the outside-in stage split. A System workload's frame times are its
// per-interval minima; a fleet workload's intervals are windows, not frames,
// so its split comes from the in-process reference runs, which ran side by
// side.
func (r *run) setFrameClasses(refs []*reference, samples []repSample) {
	var boot, key, coarse, refined []float64
	for i, ref := range refs {
		frameMs := ref.rep.frameMs
		if !r.w.fleet {
			blocks, _ := minima(samples)
			frameMs = blocks[i]
		}
		for j, info := range ref.rep.res.Info {
			switch {
			case j == 0:
				boot = append(boot, frameMs[j])
			case info.IsKeyFrame:
				key = append(key, frameMs[j])
			case info.CoarseOnly:
				coarse = append(coarse, frameMs[j])
			default:
				refined = append(refined, frameMs[j])
			}
		}
	}
	// A workload with no frame of a class reports 0 for it.
	r.set("slam.bootstrap_ms", medianOr0(boot), "ms")
	r.set("slam.frame_ms.key", medianOr0(key), "ms")
	r.set("slam.frame_ms.nonkey_coarse", medianOr0(coarse), "ms")
	r.set("slam.frame_ms.nonkey_refined", medianOr0(refined), "ms")
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// probeFrames picks the quarter points of a stream (never frame 0, which has
// no predecessor).
func probeFrames(n int) []int {
	var out []int
	for _, i := range []int{n / 4, n / 2, 3 * n / 4} {
		i = max(i, 1)
		if len(out) == 0 || out[len(out)-1] != i {
			out = append(out, i)
		}
	}
	return out
}

// probeModules times each module's public entry points on the reference
// stream: its frames, its estimated poses, its final map. Calls that mutate
// the map run on a throw-away slam.Restore copy of the final snapshot.
func (r *run) probeModules(ref *reference) error {
	frames, poses, intr := ref.seq.Frames, ref.rep.res.Poses, ref.seq.Intr
	cloud := ref.rep.res.Cloud
	at := probeFrames(len(frames))
	const k = 3 // runs per probe; the fastest is kept

	// mean over the probe frames of the fastest run, divided by per.
	probe := func(name string, per int, f func(i int)) {
		var t float64
		for _, i := range at {
			sp := r.tr.begin(name, -1, -1, i)
			t += minTime(k, func() { f(i) })
			r.tr.end(sp)
		}
		r.set(name, t/float64(len(at)*per), "ms")
	}

	probe("codec.me_ms", 1, func(i int) {
		codec.MotionEstimate(frames[i-1].Color, frames[i].Color, codec.DefaultConfig())
	})
	det := covis.NewDetector()
	probe("covis.compare_ms", 1, func(i int) { det.Compare(frames[i-1].Color, frames[i].Color) })
	aligner := tracker.NewCoarseAligner()
	probe("tracker.coarse_ms", 1, func(i int) {
		aligner.EstimatePose(frames[i-1], frames[i], intr, poses[i-1], vecmath.PoseIdentity())
	})

	ctx := splat.NewRenderContext()
	refiner := tracker.NewGSRefiner()
	refiner.LR, refiner.Workers, refiner.Ctx = r.cfg.TrackLR, r.cfg.Workers, ctx
	probe("tracker.refine_ms_per_iter", r.cfg.IterT, func(i int) { refiner.Refine(cloud, intr, frames[i], poses[i], r.cfg.IterT) })
	mid := at[len(at)/2]
	sp := r.tr.begin("tracker.refine_best_ms", -1, -1, mid)
	r.set("tracker.refine_best_ms", minTime(2, func() {
		refiner.RefineBest(cloud, intr, frames[mid], []vecmath.Pose{poses[mid], poses[mid-1]}, r.cfg.TrackIters)
	}), "ms")
	r.tr.end(sp)

	var renderMs, backwardMs float64
	var alphaOps, backwardOps int64
	for _, i := range at {
		cam := camera.Camera{Intr: intr, Pose: poses[i]}
		var res *splat.Result
		sp := r.tr.begin("splat.render_ms", -1, -1, i)
		renderMs += minTime(k, func() { res = ctx.Render(cloud, cam, splat.Options{Workers: 1}) })
		r.tr.end(sp)
		sp = r.tr.begin("splat.backward_ms", -1, -1, i)
		backwardMs += minTime(k, func() {
			ctx.Backward(cloud, cam, res, frames[i], splat.DefaultMappingLoss(), splat.BackwardOptions{GaussianGrads: true, Workers: 1})
		})
		r.tr.end(sp)
		alphaOps += res.AlphaOps
		backwardOps += 2 * res.BlendOps // the accounting tracker and mapper charge a backward pass
	}
	r.set("splat.render_ms", renderMs/float64(len(at)), "ms")
	r.set("splat.backward_ms", backwardMs/float64(len(at)), "ms")
	r.set("splat.ns_per_alpha_op", renderMs*1e6/float64(alphaOps), "ns")
	r.set("splat.ns_per_backward_op", backwardMs*1e6/float64(backwardOps), "ns")

	// Mutating probes: a fresh copy of the end-of-stream system each run.
	last := len(frames) - 1
	var restoreErr error
	onCopy := func(name string, per float64, f func(m *mapper.Mapper)) {
		best := -1.0
		for i := 0; i < k; i++ {
			sys, err := slam.Restore(bytes.NewReader(ref.rep.endSnap))
			if err != nil {
				restoreErr = err
				return
			}
			m := sys.Mapper()
			m.Ctx = ctx
			sp := r.tr.begin(name, -1, -1, last)
			t := minTime(1, func() { f(m) })
			r.tr.end(sp)
			if best < 0 || t < best {
				best = t
			}
			sys.Close()
		}
		r.set(name, best/per, "ms")
	}
	iters := float64(r.cfg.Mapper.MapIters)
	onCopy("mapper.densify_ms", 1, func(m *mapper.Mapper) { m.Densify(frames[last], intr, poses[last]) })
	onCopy("mapper.full_mapping_ms_per_iter", iters, func(m *mapper.Mapper) { m.FullMapping(frames[last], intr, poses[last]) })
	onCopy("mapper.selective_mapping_ms_per_iter", iters, func(m *mapper.Mapper) { m.SelectiveMapping(frames[last], intr, poses[last]) })
	onCopy("mapper.prune_ms", 1, func(m *mapper.Mapper) { m.Prune() })
	onCopy("mapper.compact_ms", 1, func(m *mapper.Mapper) { m.Compact() })
	if restoreErr != nil {
		return fmt.Errorf("restore for mapper probes: %w", restoreErr)
	}

	// State and wire codecs.
	sys, err := slam.Restore(bytes.NewReader(ref.rep.endSnap))
	if err != nil {
		return err
	}
	defer sys.Close()
	var snap bytes.Buffer
	r.set("slam.snapshot_ms", minTime(k, func() { snap.Reset(); err = sys.Snapshot(&snap) }), "ms")
	if err != nil {
		return err
	}
	r.set("slam.restore_ms", minTime(k, func() {
		var s *slam.System
		if s, err = slam.Restore(bytes.NewReader(ref.rep.endSnap)); err == nil {
			s.Close()
		}
	}), "ms")
	if err != nil {
		return err
	}
	midFrames := min(r.w.venueFrames, last)
	r.set("slam.snapshot_kb_mid", float64(len(ref.rep.midSnap))/1024, "KiB")
	r.set("slam.snapshot_kb_growth_per_frame",
		float64(len(ref.rep.endSnap)-len(ref.rep.midSnap))/1024/float64(len(frames)-midFrames), "KiB")
	r.set("slam.digest_ms", minTime(k, func() { ref.rep.res.Digest() }), "ms")

	var wire []byte
	var decoded *frame.Frame
	probe("slam.frame_encode_ms", 1, func(i int) { wire = slam.AppendFrame(wire[:0], frames[i]) })
	probe("slam.frame_decode_ms", 1, func(i int) { decoded, err = slam.DecodeFrame(wire) })
	if err != nil || decoded == nil {
		return fmt.Errorf("frame decode: %v", err)
	}
	r.set("slam.frame_wire_kb", float64(len(wire))/1024, "KiB")

	pool := slam.DefaultServer().PoolStats()
	r.set("splat.pool_hit_rate", pool.HitRate(), "frac")
	r.set("splat.pool_resident_kb", float64(pool.ResidentBytes)/1024, "KiB")
	r.set("metrics.ate_ms", ref.ateMs, "ms")
	r.set("metrics.psnr_eval_ms", ref.psnrMs, "ms")
	return nil
}

// venues pushes the same stream prefix through each serving venue — System,
// Session, one Node, Router over two Nodes with checkpoints — so each layer's
// cost is a difference between two measured numbers. Every venue must finish
// to the System pass's digest, and so must the reference run's snapshot at
// that prefix. It returns the router pass.
func (r *run) venues(ref *reference) (*fleetRep, error) {
	k := min(r.w.venueFrames, len(ref.seq.Frames)-1)
	prefix := *ref.seq
	prefix.Frames = ref.seq.Frames[:k]
	seqs := []*scene.Sequence{&prefix}
	r.attempted += 4 * k

	sp := r.tr.begin("venue.system", -1, -1, -1)
	system, err := runSystemRep(r.cfg, &prefix, 0, r.tr, sp, -1)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("system venue: %w", err)
	}
	systemMs := sum(system.frameMs) / float64(k)
	want := system.digest
	if r.o.corruptDigest {
		want[0] ^= 1
	}
	sys, err := slam.Restore(bytes.NewReader(ref.rep.midSnap))
	if err != nil {
		return nil, fmt.Errorf("restore of prefix snapshot: %w", err)
	}
	r.check(sys.Finish(prefix.Name).Digest() == want, "restored prefix snapshot finishes to a different digest than a System run of the prefix")
	sys.Close()

	sp = r.tr.begin("venue.session", -1, -1, -1)
	sessionMs, digest, err := runSessionRep(r.cfg, &prefix)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("session venue: %w", err)
	}
	r.check(digest == want, "session venue digest differs from the System prefix")

	sp = r.tr.begin("venue.node", -1, -1, -1)
	node, err := runFleetRep(r.cfg, seqs, 1, fleet.StreamOptions{}, r.tr, sp, -1)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("node venue: %w", err)
	}
	r.check(node.streams[0].sum.Digest == want, "node venue digest differs from the System prefix")

	sp = r.tr.begin("venue.router", -1, -1, -1)
	router, err := runFleetRep(r.cfg, seqs, 2, checkpointed, r.tr, sp, -1)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("router venue: %w", err)
	}
	r.check(router.streams[0].sum.Digest == want, "router venue digest differs from the System prefix")
	r.check(router.router.Recoveries == 0, "router venue recorded %d recoveries", router.router.Recoveries)

	// Bytes the nodes wrote while a checkpoint push was in flight: the
	// snapshot and two acks. Only a single stream makes them attributable.
	st := router.streams[0]
	var ckptBytes, ckpts float64
	for i := checkpointEvery - 1; i < len(st.outAt); i += checkpointEvery {
		ckptBytes += float64(st.outAt[i] - st.outAt[i-1])
		ckpts++
	}
	r.set("fleet.checkpoint_kb", ckptBytes/max(ckpts, 1)/1024, "KiB")

	nodeMs := node.streams[0].wallMs / float64(k)
	routerMs := st.wallMs / float64(k)
	r.set("slam.system_ms_per_frame", systemMs, "ms")
	r.set("slam.session_ms_per_frame", sessionMs, "ms")
	r.set("fleet.node_ms_per_frame", nodeMs, "ms")
	r.set("fleet.router_ms_per_frame", routerMs, "ms")
	r.set("slam.session_overhead_ms", sessionMs-systemMs, "ms")
	r.set("fleet.node_overhead_ms", nodeMs-sessionMs, "ms")
	r.set("fleet.checkpoint_overhead_ms", routerMs-nodeMs, "ms")
	return router, nil
}

// setServing reports what the producers and the counting listeners saw of
// one fleet repetition.
func (r *run) setServing(fr *fleetRep) {
	var open, closeMs, rtt, ckpt []float64
	var frames, wall, inPush float64
	for _, st := range fr.streams {
		open = append(open, st.openMs)
		closeMs = append(closeMs, st.closeMs)
		for i, p := range st.pushMs {
			switch {
			case (i+1)%checkpointEvery == 0:
				ckpt = append(ckpt, p)
			case i > 0 && i%checkpointEvery == 0:
				rtt = append(rtt, p) // first push after a checkpoint ack: the queue is empty
			}
		}
		frames += float64(len(st.pushMs))
		wall += st.wallMs
		inPush += sum(st.pushMs)
	}
	pushRTT := medianOr0(rtt) // none when the stream is shorter than a checkpoint window plus one
	r.set("fleet.open_ms", median(open), "ms")
	r.set("fleet.close_ms", median(closeMs), "ms")
	r.set("fleet.ping_rtt_ms", fr.pingMs, "ms")
	r.set("fleet.push_rtt_ms", pushRTT, "ms")
	r.set("fleet.checkpoint_push_ms", medianOr0(ckpt), "ms")
	r.set("fleet.wire_kb_in_per_frame", float64(fr.in)/frames/1024, "KiB")
	r.set("fleet.wire_kb_out_per_frame", float64(fr.out)/frames/1024, "KiB")
	// Share of the producers' time spent inside Push beyond a queue-empty
	// round trip: waiting for queue space or for a checkpoint.
	r.set("fleet.producer_blocked_frac", (inPush-pushRTT*frames)/wall, "frac")
	r.set("fleet.primary_hit_frac", float64(fr.router.PrimaryHits)/float64(max(fr.router.Placements, 1)), "frac")
	r.set("fleet.migrations", float64(fr.router.Migrations), "count")
	r.set("fleet.recoveries", float64(fr.router.Recoveries), "count")
	if r.w.fleet {
		r.set("splat.pool_hit_rate", fr.pool.HitRate(), "frac")
		r.set("splat.pool_resident_kb", float64(fr.pool.ResidentBytes)/1024, "KiB")
	}
}
