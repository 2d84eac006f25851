// Command ags-fleet runs the distributed serving layer: a node (one
// slam.Server behind a TCP listener) or a router driving live streams across
// a fleet of nodes, with placement, admission control and mid-stream
// migration.
//
// Usage:
//
//	ags-fleet serve -name node-a -addr 127.0.0.1:7701
//	ags-fleet serve -name node-b -addr 127.0.0.1:7702 -max-sessions 4
//	ags-fleet serve -name node-c -addr 127.0.0.1:7703 -chaos-seed 42 -chaos-kill-after 100
//	        # fault-injected node: dies uncleanly (listener + every conn) at
//	        # its 100th wire write, truncation offsets seeded by 42
//
//	ags-fleet route -nodes 127.0.0.1:7701,127.0.0.1:7702 -seq Desk,Xyz
//	ags-fleet route -nodes ... -seq Desk -algo droid   # -algo is one of
//	        baseline, ags, mat, gcm, droid (default ags)
//	ags-fleet route -nodes ... -seq Desk,Xyz -drain-at 12   # drain the first
//	        stream's node after 12 frames; its sessions migrate mid-stream
//	ags-fleet route -nodes ... -seq Desk,Xyz -checkpoint-every 4
//	        # checkpoint-replay recovery: snapshot each stream every 4 acked
//	        # frames; if its node dies the stream re-places, restores the
//	        # checkpoint and replays the buffered tail — same digest
//
//	ags-fleet stats -nodes 127.0.0.1:7701,127.0.0.1:7702
//	ags-fleet drain -nodes 127.0.0.1:7701 -node node-a
//
// Route verifies every stream against a local sequential run of the same
// sequence: the fleet's Result digests must be bit-identical, migrations
// included (disable with -verify=false to skip the local reference runs).
// With -checkpoint-every the same bit-identity holds across unclean node
// death mid-stream.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"time"

	"ags/internal/fleet"
	"ags/internal/fleet/chaos"
	"ags/internal/scene"
	"ags/internal/slam"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serveCmd(os.Args[2:])
	case "route":
		err = routeCmd(os.Args[2:])
	case "stats":
		err = statsCmd(os.Args[2:])
	case "drain":
		err = drainCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ags-fleet: unknown mode %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ags-fleet <serve|route|stats|drain> [flags]  (ags-fleet <mode> -h for mode flags)")
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		name        = fs.String("name", "node", "node name (its fleet-wide identity)")
		addr        = fs.String("addr", "127.0.0.1:0", "listen address")
		maxSessions = fs.Int("max-sessions", 0, "admission cap on concurrent streams (0 = unlimited)")
		maxResident = fs.Int64("max-resident-bytes", 0, "reject new streams once the context pool holds this many resident bytes (0 = unlimited)")
		poolCap     = fs.Int("pool", 0, "render-context pool capacity (0 = 2 x GOMAXPROCS)")
		chaosSeed   = fs.Uint64("chaos-seed", 0, "fault-injection PRNG seed for mid-frame truncation offsets (0 = no injector unless -chaos-kill-after is set)")
		chaosKill   = fs.Int("chaos-kill-after", 0, "kill this node uncleanly — listener and every connection — at its Nth wire write (0 = never)")
	)
	fs.Parse(args)
	checkFlags(
		inRange("max-sessions", int64(*maxSessions), math.MaxInt64, "unlimited"),
		inRange("max-resident-bytes", *maxResident, math.MaxInt64, "unlimited"),
		inRange("pool", int64(*poolCap), math.MaxInt64, "2 x GOMAXPROCS"),
		inRange("chaos-kill-after", int64(*chaosKill), math.MaxInt64, "never"))

	n := fleet.NewNode(fleet.NodeConfig{
		Name:             *name,
		Server:           slam.ServerConfig{ContextCapacity: *poolCap},
		MaxSessions:      *maxSessions,
		MaxResidentBytes: *maxResident,
	})
	var bound string
	var err error
	if *chaosSeed != 0 || *chaosKill > 0 {
		ln, lerr := net.Listen("tcp", *addr)
		if lerr != nil {
			return lerr
		}
		in := chaos.New(chaos.Config{Seed: *chaosSeed, KillAtWrite: *chaosKill})
		bound, err = n.StartOn(in.Listen(ln))
		if err == nil {
			fmt.Printf("fault injector armed: seed %d, kill at write %d\n", *chaosSeed, *chaosKill)
		}
	} else {
		bound, err = n.Start(*addr)
	}
	if err != nil {
		return err
	}
	fmt.Printf("node %q serving on %s (max-sessions %d, max-resident %d B)\n",
		*name, bound, *maxSessions, *maxResident)
	select {} // serve until killed
}

// checkFlags refuses numeric flag values out of range with exit code 2, as
// flag parsing refuses malformed ones.
func checkFlags(errs ...error) {
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// inRange accepts a -name value of 0, which means zero ("never",
// "unlimited", ...), or 1..hi, and names that range in its refusal of any
// other, which would otherwise silently mean zero too.
func inRange(name string, v, hi int64, zero string) error {
	switch {
	case v == 0 || v >= 1 && v <= hi:
		return nil
	case hi < 1:
		return fmt.Errorf("-%s %d: only 0 (%s) is valid here", name, v, zero)
	case hi == math.MaxInt64:
		return fmt.Errorf("-%s %d is out of range: want 1 or more, or 0 for %s", name, v, zero)
	}
	return fmt.Errorf("-%s %d is out of range: want 1..%d, or 0 for %s", name, v, hi, zero)
}

// atLeastOne refuses a -name value below 1: a frame side or a frame count,
// which scene generation would otherwise refuse with exit 1.
func atLeastOne(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s %d is out of range: want 1 or more", name, v)
	}
	return nil
}

// dialRouter builds a router over the given comma-separated node addresses.
func dialRouter(nodes string) (*fleet.Router, error) {
	addrs := strings.Split(nodes, ",")
	r := fleet.NewRouter()
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if err := r.AddNode(a); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

func routeCmd(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	var (
		nodes   = fs.String("nodes", "", "comma-separated node addresses (required)")
		seqs    = fs.String("seq", "Desk,Xyz", "comma-separated sequence names, one stream each")
		width   = fs.Int("w", 64, "frame width")
		height  = fs.Int("h", 48, "frame height")
		frames  = fs.Int("frames", 24, "frames per sequence")
		algo    = fs.String("algo", "ags", "baseline | ags | mat | gcm | droid")
		drainAt = fs.Int("drain-at", 0, "after this many frames, drain the node serving the first stream (0 = never)")
		ckEvery = fs.Int("checkpoint-every", 0, "checkpoint-replay recovery: snapshot each stream every N acked frames and survive node death (0 = recovery off)")
		verify  = fs.Bool("verify", true, "run each sequence locally too and assert the fleet digests match")
	)
	fs.Parse(args)
	if *nodes == "" {
		return fmt.Errorf("ags-fleet route: -nodes is required")
	}
	cfg, algoErr := slam.AlgorithmConfig(*algo)
	if algoErr != nil {
		algoErr = fmt.Errorf("-algo: %w", algoErr)
	}
	// The drain lands before frame -drain-at, so it needs a frame on either side.
	checkFlags(
		atLeastOne("w", *width),
		atLeastOne("h", *height),
		atLeastOne("frames", *frames),
		algoErr,
		inRange("drain-at", int64(*drainAt), int64(*frames-1), "never"),
		inRange("checkpoint-every", int64(*ckEvery), math.MaxInt64, "recovery off"))

	names := strings.Split(*seqs, ",")
	sequences := make([]*scene.Sequence, len(names))
	for i, name := range names {
		name = strings.TrimSpace(name)
		names[i] = name
		seq, err := scene.Generate(name, scene.Config{Width: *width, Height: *height, Frames: *frames, Seed: 1})
		if err != nil {
			return err
		}
		sequences[i] = seq
	}

	r, err := dialRouter(*nodes)
	if err != nil {
		return err
	}
	defer r.Close()

	streams := make([]*fleet.Stream, len(sequences))
	for i, seq := range sequences {
		st, err := r.OpenWith(seq.Name, cfg, seq.Intr, fleet.StreamOptions{CheckpointEvery: *ckEvery})
		if err != nil {
			return err
		}
		streams[i] = st
		fmt.Printf("stream %-8s placed on %s\n", seq.Name, st.Node())
	}

	// Round-robin pushes: streams interleave on the fleet while each keeps
	// its own frame order, and -drain-at lands at a well-defined point.
	start := time.Now()
	pushed := 0
	for f := 0; f < *frames; f++ {
		if *drainAt > 0 && f == *drainAt {
			target := streams[0].Node()
			fmt.Printf("draining %s at frame %d...\n", target, f)
			if err := r.Drain(target); err != nil {
				return err
			}
		}
		for i, seq := range sequences {
			if f >= len(seq.Frames) {
				continue
			}
			if err := streams[i].Push(seq.Frames[f]); err != nil {
				return err
			}
			pushed++
		}
	}
	sums := make([]fleet.ResultSummary, len(streams))
	for i, st := range streams {
		sum, err := st.Close()
		if err != nil {
			return fmt.Errorf("stream %s: %w", names[i], err)
		}
		sums[i] = sum
	}
	elapsed := time.Since(start)

	fmt.Printf("\n%d streams, %d frames in %s (%.2f frames/s)\n",
		len(streams), pushed, elapsed.Round(time.Millisecond), float64(pushed)/elapsed.Seconds())
	for i, sum := range sums {
		fmt.Printf("  %-8s on %-8s digest %x  frames %d  gaussians %d  migrations %d  recoveries %d (%d frame(s) replayed)\n",
			names[i], streams[i].Node(), sum.Digest[:8], sum.Frames, sum.NumGaussians,
			streams[i].Migrations(), streams[i].Recoveries(), streams[i].Replayed())
	}
	m := r.Metrics()
	fmt.Printf("placement: %d/%d on first choice, %d migration(s), %d recovery(ies) replaying %d frame(s)\n",
		m.PrimaryHits, m.Placements, m.Migrations, m.Recoveries, m.ReplayedFrames)

	if *verify {
		fmt.Printf("\nverifying against local sequential runs...\n")
		for i, seq := range sequences {
			res, err := slam.NewServer(slam.ServerConfig{}).Run(cfg, seq)
			if err != nil {
				return err
			}
			if res.Digest() != sums[i].Digest {
				return fmt.Errorf("stream %s: fleet digest diverges from local sequential run", names[i])
			}
			fmt.Printf("  %-8s ok (digest %x)\n", names[i], sums[i].Digest[:8])
		}
		fmt.Printf("all %d fleet digests bit-identical to local runs\n", len(sums))
	}
	return nil
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	nodes := fs.String("nodes", "", "comma-separated node addresses (required)")
	fs.Parse(args)
	if *nodes == "" {
		return fmt.Errorf("ags-fleet stats: -nodes is required")
	}
	r, err := dialRouter(*nodes)
	if err != nil {
		return err
	}
	defer r.Close()
	sts, err := r.Stats()
	if err != nil {
		return err
	}
	for _, st := range sts {
		state := "serving"
		if st.Draining {
			state = "draining"
		}
		fmt.Printf("%-12s %-8s sessions %d/%d  pool %d cap, %d idle, %d hits / %d misses, %.1f KB resident\n",
			st.Name, state, st.OpenSessions, st.MaxSessions,
			st.Pool.Capacity, st.Pool.Idle, st.Pool.Hits, st.Pool.Misses,
			float64(st.Pool.ResidentBytes)/1024)
	}
	return nil
}

func drainCmd(args []string) error {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	var (
		nodes = fs.String("nodes", "", "comma-separated node addresses (required)")
		node  = fs.String("node", "", "name of the node to drain (required)")
	)
	fs.Parse(args)
	if *nodes == "" || *node == "" {
		return fmt.Errorf("ags-fleet drain: -nodes and -node are required")
	}
	r, err := dialRouter(*nodes)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.Drain(*node); err != nil {
		return err
	}
	fmt.Printf("node %q draining: no new streams admitted; routed streams migrate at their next push\n", *node)
	return nil
}
