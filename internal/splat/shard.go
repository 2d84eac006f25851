package splat

import "runtime"

// shardRangesInto partitions the half-open tile range [0, n) into at most
// workers contiguous, ascending spans (workers <= 0 means GOMAXPROCS), sized
// as evenly as possible, and appends them to dst (reusing its capacity — the
// RenderContext's per-call path). The partition is a pure function of
// (n, workers): the same inputs always yield the same tile->shard assignment,
// which is what makes the render and backward reductions
// scheduling-independent. Spans are [start, end) pairs; at least one span is
// always appended (it is empty when n == 0).
func shardRangesInto(dst [][2]int, n, workers int) [][2]int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	base, rem := n/workers, n%workers
	start := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		dst = append(dst, [2]int{start, start + size})
		start += size
	}
	return dst
}
