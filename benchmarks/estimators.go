package main

import (
	"math"
	"sort"
	"time"
)

// The estimators below rest on one fact: the pipeline is bit-deterministic,
// so repetition r of a workload does identical work between the same two sync
// points. Whatever differs between repetitions of one interval is the box,
// and the box only ever adds time. The per-interval minimum across
// repetitions therefore filters everything but a slow phase that covers every
// repetition of that interval.

// minAcross returns, for each interval, the smallest sample any repetition
// recorded for it. reps[r][i] is interval i of repetition r; all repetitions
// have the same length.
func minAcross(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := append([]float64(nil), reps[0]...)
	for _, rep := range reps[1:] {
		for i, v := range rep {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// streamMs is the time one stream needs when every sync interval runs at its
// fastest: the sum of its per-interval minima (ms per frame) times the frames
// an interval covers, plus its fastest tail (ms), e.g. Close.
func streamMs(minimaMs []float64, framesPerInterval int, tailMs float64) float64 {
	return sum(minimaMs)*float64(framesPerInterval) + tailMs
}

// throughput is frames per second when the slowest of concurrent streams
// sets the pace.
func throughput(frames int, streamsMs []float64) float64 {
	slowest := streamsMs[0]
	for _, t := range streamsMs[1:] {
		slowest = max(slowest, t)
	}
	return float64(frames) / (slowest / 1000)
}

// percentileIndex is the nearest-rank index of the p-th percentile in n
// ascending samples: the smallest index with at least p of the samples at or
// below it. p90 of 16, 20 and 40 is index 14, 17 and 35.
func percentileIndex(n int, p float64) int {
	// The epsilon keeps 0.9*20 = 18.000000000000004 from rounding up a rank.
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank p-th percentile without reordering xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[percentileIndex(len(s), p)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowMs slices one stream's push-return times into checkpoint windows and
// returns each window's duration per frame, in ms. returns[i] is when push i
// came back, measured from the moment before push 0; with a checkpoint every
// `every` pushes, push i carries the checkpoint when (i+1)%every == 0, and its
// return is the only point at which the remote session is known drained. A
// trailing partial window is dropped: it ends at no such point.
func windowMs(returns []time.Duration, every int) []float64 {
	var out []float64
	var prev time.Duration
	for i := every - 1; i < len(returns); i += every {
		out = append(out, ms(returns[i]-prev)/float64(every))
		prev = returns[i]
	}
	return out
}

// minTime runs f k times and returns the fastest run in ms.
func minTime(k int, f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		t := time.Now()
		f()
		best = min(best, ms(time.Since(t)))
	}
	return best
}
