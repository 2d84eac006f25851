package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"ags/internal/fleet"
	"ags/internal/scene"
	"ags/internal/slam"
	"ags/internal/splat"
)

// streamSpec names one camera stream of a workload: a procedural sequence
// and how many of its frames are pushed.
type streamSpec struct {
	seq    string
	frames int
}

// workload is one fixed set of inputs and the venue they run through.
type workload struct {
	name, why string
	w, h      int
	streams   []streamSpec
	ags       bool // EnableMAT + EnableGCM
	fleet     bool // streams go through Router -> loopback Nodes, concurrently
	// repSeconds is what one timed repetition costs on the 2-core box the
	// benchmark was sized on; --seconds buys floor(seconds/repSeconds)
	// repetitions (at least 3). A count derived from the clock would change
	// between runs and a minimum over more samples is a smaller number.
	repSeconds float64
	// venueFrames is the stream prefix the venue passes of the traced run
	// push through Session, Node and Router.
	venueFrames int
}

// checkpointEvery is the fleet streams' StreamOptions.CheckpointEvery: the
// session is drained and an AGSSNAP snapshot shipped on every fifth push.
const checkpointEvery = 5

var checkpointed = fleet.StreamOptions{CheckpointEvery: checkpointEvery}

var workloads = []workload{
	{
		name: "desk_ags", why: "high covisibility: 32/40 frames coarse-only, 2 key frames, so codec/covis, coarse alignment and selective mapping do the work",
		w: 64, h: 48, streams: []streamSpec{{"Desk", 40}}, ags: true, repSeconds: 4, venueFrames: 10,
	},
	{
		name: "s2_ags", why: "rotation-heavy: every frame a key frame, map grows to ~7k Gaussians, so refine, densify, full mapping and state growth do the work and the covisibility gates are bypassed",
		w: 64, h: 48, streams: []streamSpec{{"S2", 20}}, ags: true, repSeconds: 5, venueFrames: 6,
	},
	{
		name: "desk_baseline", why: "both AGS switches off: RefineBest and full mapping on every frame, so splat render/backward dominate; the paper's reference pipeline, which AGS-logic changes must not move",
		w: 64, h: 48, streams: []streamSpec{{"Desk", 12}}, ags: false, repSeconds: 5, venueFrames: 6,
	},
	{
		name: "fleet_pair", why: "Desk and Office0 pushed concurrently through Router and two loopback Nodes with a checkpoint every 5 frames: wire, queueing, shared pool and snapshot shipping, the only load on both cores",
		w: 64, h: 48, streams: []streamSpec{{"Desk", 40}, {"Office0", 40}}, ags: true, fleet: true, repSeconds: 5, venueFrames: 10,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) totalFrames() int {
	n := 0
	for _, s := range w.streams {
		n += s.frames
	}
	return n
}

// slamConfig pins the pipeline configuration here, not in bench.Quick(), so a
// change to the experiment suite's defaults cannot move the benchmark. One
// stream is one busy thread: serial render, serial codec, no ME prefetch.
func (w *workload) slamConfig() slam.Config {
	cfg := slam.DefaultConfig(w.w, w.h)
	cfg.TrackIters = 24
	cfg.IterT = 5
	cfg.Mapper.MapIters = 8
	cfg.Mapper.DensifyStride = 2
	cfg.Workers = 1
	cfg.CodecWorkers = 1
	cfg.PipelineME = false
	cfg.EnableMAT, cfg.EnableGCM = w.ags, w.ags
	return cfg
}

// Sensor noise added per seed: a fortieth of an 8-bit colour step and 0.05 mm
// per metre of depth. The camera paths stay scene seed 1. See README: the
// pipeline amplifies any perturbation to the same few-percent spread in map
// size and ATE, while the scene's own jitter seed moves Desk's ATE between 5
// and 475 cm, so it cannot be what --seed varies.
const (
	noiseColor = 1e-4
	noiseDepth = 5e-5
)

// makeInputs generates the workload's sequences and perturbs them from seed.
// generate is the part spent inside scene.Generate.
func makeInputs(w *workload, seed int64) (seqs []*scene.Sequence, generate time.Duration, err error) {
	for i, s := range w.streams {
		t := time.Now()
		seq, err := scene.Generate(s.seq, scene.Config{Width: w.w, Height: w.h, Frames: s.frames, Seed: 1})
		if err != nil {
			return nil, 0, err
		}
		generate += time.Since(t)
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		for _, f := range seq.Frames {
			for p := range f.Color.Pix {
				c := &f.Color.Pix[p]
				c.X = min(max(c.X+rng.NormFloat64()*noiseColor, 0), 1)
				c.Y = min(max(c.Y+rng.NormFloat64()*noiseColor, 0), 1)
				c.Z = min(max(c.Z+rng.NormFloat64()*noiseColor, 0), 1)
			}
			for p, d := range f.Depth.D {
				if d > 0 {
					f.Depth.D[p] = d * (1 + rng.NormFloat64()*noiseDepth)
				}
			}
		}
		seqs = append(seqs, seq)
	}
	return seqs, generate, nil
}

// memMark brackets a repetition for the allocation metrics.
type memMark struct{ alloc, mallocs uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, m.Mallocs}
}

func (a memMark) since() memMark {
	b := markMem()
	return memMark{b.alloc - a.alloc, b.mallocs - a.mallocs}
}

// sysRep is one repetition of a stream through slam.New + ProcessFrame.
type sysRep struct {
	frameMs []float64 // one interval per ProcessFrame call
	res     *slam.Result
	digest  [32]byte
	mem     memMark
	// Reference repetitions only: snapshots after snapAt frames and after
	// the last one, taken between the timed calls.
	midSnap, endSnap []byte
}

// runSystemRep pushes seq through a fresh System. snapAt > 0 marks a
// reference repetition, which also serializes the system twice.
func runSystemRep(cfg slam.Config, seq *scene.Sequence, snapAt int, tr *tracer, parent, rep int) (*sysRep, error) {
	out := &sysRep{frameMs: make([]float64, 0, len(seq.Frames))}
	mem := markMem()
	sys := slam.New(cfg, seq.Intr)
	defer sys.Close()
	for i, f := range seq.Frames {
		sp := tr.begin("slam.System.ProcessFrame", parent, rep, i)
		t := time.Now()
		err := sys.ProcessFrame(f)
		d := time.Since(t)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		out.frameMs = append(out.frameMs, ms(d))
		if snapAt > 0 && i+1 == snapAt {
			var buf bytes.Buffer
			if err := sys.Snapshot(&buf); err != nil {
				return nil, err
			}
			out.midSnap = buf.Bytes()
		}
	}
	out.mem = mem.since()
	if snapAt > 0 {
		var buf bytes.Buffer
		if err := sys.Snapshot(&buf); err != nil {
			return nil, err
		}
		out.endSnap = buf.Bytes()
	}
	out.res = sys.Finish(seq.Name)
	out.digest = out.res.Digest()
	return out, nil
}

// cluster is n loopback fleet nodes behind counting listeners and a router
// that knows them all.
type cluster struct {
	nodes  []*fleet.Node
	lns    []*countingListener
	router *fleet.Router
}

func bootCluster(n int) (*cluster, error) {
	c := &cluster{router: fleet.NewRouter()}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		cl := &countingListener{Listener: ln}
		node := fleet.NewNode(fleet.NodeConfig{Name: fmt.Sprintf("node-%c", 'a'+i)})
		addr, err := node.StartOn(cl)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes, c.lns = append(c.nodes, node), append(c.lns, cl)
		if err := c.router.AddNode(addr); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// close stops the router and every node, waiting for their goroutines.
func (c *cluster) close() error {
	c.router.Close()
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *cluster) wireBytes() (in, out int64) {
	for _, l := range c.lns {
		in += l.in.Load()
		out += l.out.Load()
	}
	return in, out
}

func (c *cluster) poolStats() splat.PoolStats {
	var p splat.PoolStats
	for _, n := range c.nodes {
		s := n.Server().PoolStats()
		p.Hits += s.Hits
		p.Misses += s.Misses
		p.ResidentBytes += s.ResidentBytes
	}
	return p
}

// fleetStream is what one producer saw of its stream in one repetition.
type fleetStream struct {
	openMs  float64
	returns []time.Duration // when push i came back, from just before push 0
	pushMs  []float64
	outAt   []int64 // bytes the nodes had written when push i came back
	closeMs float64
	wallMs  float64 // first push to Close return
	sum     fleet.ResultSummary
	err     error
}

// fleetRep is one repetition of a set of streams through a fresh cluster.
type fleetRep struct {
	streams []fleetStream
	in, out int64
	router  fleet.RouterMetrics
	pool    splat.PoolStats
	pingMs  float64
	mem     memMark
}

// runFleetRep boots nodes loopback nodes, opens one stream per sequence and
// pushes them concurrently, one closed-loop producer each.
func runFleetRep(cfg slam.Config, seqs []*scene.Sequence, nodes int, opts fleet.StreamOptions, tr *tracer, parent, rep int) (*fleetRep, error) {
	mem := markMem()
	c, err := bootCluster(nodes)
	if err != nil {
		return nil, err
	}
	out := &fleetRep{streams: make([]fleetStream, len(seqs))}
	streams := make([]*fleet.Stream, len(seqs))
	for i, seq := range seqs {
		sp := tr.begin("fleet.Router.OpenWith", parent, rep, -1)
		t := time.Now()
		st, err := c.router.OpenWith(seq.Name, cfg, seq.Intr, opts)
		out.streams[i].openMs = ms(time.Since(t))
		tr.end(sp)
		if err != nil {
			c.close()
			return nil, err
		}
		streams[i] = st
		n := len(seq.Frames)
		out.streams[i].returns = make([]time.Duration, 0, n)
		out.streams[i].pushMs = make([]float64, 0, n)
		out.streams[i].outAt = make([]int64, 0, n)
	}
	out.pingMs = minTime(3, func() { c.router.CheckHealth() }) / float64(nodes)

	var wg sync.WaitGroup
	for i := range seqs {
		wg.Add(1)
		go func(s *fleetStream, st *fleet.Stream, seq *scene.Sequence) {
			defer wg.Done()
			root := tr.begin("fleet.producer", parent, rep, -1)
			defer tr.end(root)
			start := time.Now()
			for j, f := range seq.Frames {
				sp := tr.begin("fleet.Stream.Push", root, rep, j)
				t := time.Now()
				err := st.Push(f)
				d := time.Since(t)
				tr.end(sp)
				if err != nil {
					s.err = fmt.Errorf("stream %s push %d: %w", seq.Name, j, err)
					st.Close()
					return
				}
				_, written := c.wireBytes()
				s.returns = append(s.returns, time.Since(start))
				s.pushMs = append(s.pushMs, ms(d))
				s.outAt = append(s.outAt, written)
			}
			sp := tr.begin("fleet.Stream.Close", root, rep, -1)
			t := time.Now()
			s.sum, s.err = st.Close()
			s.closeMs = ms(time.Since(t))
			tr.end(sp)
			s.wallMs = ms(time.Since(start))
		}(&out.streams[i], streams[i], seqs[i])
	}
	wg.Wait()

	out.in, out.out = c.wireBytes()
	out.router = c.router.Metrics()
	out.pool = c.poolStats()
	if err := c.close(); err != nil {
		return nil, err
	}
	out.mem = mem.since()
	for i := range out.streams {
		if err := out.streams[i].err; err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSessionRep pushes seq through a Session on a private Server: the same
// engine behind a queue and a worker goroutine, no wire.
func runSessionRep(cfg slam.Config, seq *scene.Sequence) (perFrameMs float64, digest [32]byte, err error) {
	sv := slam.NewServer(slam.ServerConfig{})
	t := time.Now()
	res, err := sv.Run(cfg, seq)
	d := time.Since(t)
	if err != nil {
		return 0, digest, err
	}
	return ms(d) / float64(len(seq.Frames)), res.Digest(), sv.Close()
}
