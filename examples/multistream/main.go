// Multistream: serve several live camera streams from one slam.Server.
//
// Each stream is a Session driven by its own producer goroutine: Push
// tracks a frame on that goroutine (no queue, no buffering) while the
// previous frame's mapping runs beside it, and Close runs the last
// mapping and returns the final Result: the map and the stream's history as a
// running digest (a session keeps no per-frame history, so it does not grow
// with the stream). All sessions render through the server's bounded context
// pool, so N streams share render state instead of each pinning their own
// forever.
//
//	go run ./examples/multistream
package main

import (
	"fmt"
	"log"
	"sync"

	"ags/internal/scene"
	"ags/internal/slam"
)

const (
	width, height = 48, 36
	frames        = 8
)

func main() {
	// 1. One server per host: it owns the shared render-context pool.
	srv := slam.NewServer(slam.ServerConfig{ContextCapacity: 2})

	// 2. Two synthetic RGB-D streams (stand-ins for live cameras).
	names := []string{"Desk", "Room"}
	var wg sync.WaitGroup
	results := make([]*slam.Result, len(names))
	for i, name := range names {
		seq, err := scene.Generate(name, scene.Config{
			Width: width, Height: height, Frames: frames, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}

		cfg, err := slam.AlgorithmConfig("ags")
		if err != nil {
			log.Fatal(err)
		}
		cfg.TrackIters = 20 // scaled-down N_T for a quick demo

		sess, err := srv.Open(name, cfg, seq.Intr)
		if err != nil {
			log.Fatal(err)
		}

		// 3. Produce the stream's frames.
		wg.Add(1)
		go func(i int, sess *slam.Session, seq *scene.Sequence) {
			defer wg.Done()
			for _, f := range seq.Frames {
				if err := sess.Push(f); err != nil {
					log.Fatal(err)
				}
			}
			res, err := sess.Close()
			if err != nil {
				log.Fatal(err)
			}
			results[i] = res
		}(i, sess, seq)
	}
	wg.Wait()

	// 4. One line per stream from its Result, plus the shared pool's economics.
	for i, name := range names {
		res := results[i]
		ate, err := res.ATERMSECm()
		if err != nil {
			log.Fatal(err)
		}
		dig := res.Digest()
		fmt.Printf("%-5s %d frames, %4d gaussians, ATE RMSE %.2f cm, digest %x\n",
			name, res.Frames, res.Cloud.Len(), ate, dig[:8])
	}
	st := srv.PoolStats()
	fmt.Printf("pool  %d/%d contexts resident (%.1f KB), %d hits / %d misses / %d evictions\n",
		st.Idle, st.Capacity, float64(st.ResidentBytes)/1024, st.Hits, st.Misses, st.Evictions)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
