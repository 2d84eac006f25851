// Package gpe models the Gaussian processing element (GPE) arrays of the AGS
// pose tracking and mapping engines (paper §5.3-5.4). Each 4x4 GPE array
// renders a 4x4 pixel block; rendering is disassembled into the
// order-independent alpha computation (stage 1) and the sequential
// alpha-blending (stage 2). The model replays the renderer's per-pixel
// workload in two modes: naive (each GPE runs its pixel to completion, array
// time = slowest pixel) and scheduled (idle GPEs execute other pixels' stage-1
// work through the workload table / alpha buffer, Fig. 13).
package gpe

// Params configures a GPE array model.
type Params struct {
	// AlphaCycles is the pipeline cost of one stage-1 alpha evaluation.
	AlphaCycles int
	// BlendCycles is the cost of one stage-2 blend step.
	BlendCycles int
	// Arrays is the number of 4x4 GPE arrays working in parallel.
	Arrays int
	// SchedulerOverheadPct models workload-table lookups and alpha-buffer
	// tag checks as a percentage penalty on the scheduled makespan.
	SchedulerOverheadPct float64
}

// DefaultParams matches the paper's GPE pipeline (one alpha evaluation needs
// the 2x2 covariance product and an exponential; blending is a short MAC
// chain).
func DefaultParams(arrays int) Params {
	return Params{AlphaCycles: 4, BlendCycles: 2, Arrays: arrays, SchedulerOverheadPct: 3}
}

const blockDim = 4 // a GPE array covers 4x4 pixels

// BlockCycles returns the cycles a single 4x4 array spends on one pixel
// block, given each pixel's stage-1 and stage-2 op counts.
func BlockCycles(alpha, blend []int32, p Params, scheduled bool) int64 {
	if !scheduled {
		// Naive: every GPE finishes its own pixel; the array waits for the
		// slowest one (Fig. 13a).
		var worst int64
		for i := range alpha {
			c := int64(alpha[i])*int64(p.AlphaCycles) + int64(blend[i])*int64(p.BlendCycles)
			if c > worst {
				worst = c
			}
		}
		return worst
	}
	// Scheduled: stage-1 work migrates to idle GPEs, stage-2 stays bound to
	// its pixel. The makespan is bounded below by the throughput bound
	// (total work over 16 GPEs) and by the longest per-pixel blend chain.
	var total, worstBlend int64
	for i := range alpha {
		total += int64(alpha[i])*int64(p.AlphaCycles) + int64(blend[i])*int64(p.BlendCycles)
		if c := int64(blend[i]) * int64(p.BlendCycles); c > worstBlend {
			worstBlend = c
		}
	}
	gpes := int64(blockDim * blockDim)
	span := (total + gpes - 1) / gpes
	if worstBlend > span {
		span = worstBlend
	}
	return span + span*int64(p.SchedulerOverheadPct)/100
}

// FrameCycles replays a frame's per-pixel workload (one render iteration)
// through the GPE arrays and returns the busiest array's cycle count.
//
// Without the scheduler, blocks are statically assigned round-robin and each
// GPE runs its own pixel to completion. With the scheduler (workload table +
// alpha buffer), blocks drain from a shared queue (least-loaded dispatch) and
// stage-1 work migrates between GPEs within a block.
func FrameCycles(perPixelAlpha, perPixelBlend []int32, w, h int, p Params, scheduled bool) int64 {
	if len(perPixelAlpha) != w*h || len(perPixelBlend) != w*h {
		return 0
	}
	if p.Arrays < 1 {
		p.Arrays = 1
	}
	arrayLoad := make([]int64, p.Arrays)
	var a16, b16 [blockDim * blockDim]int32
	bi := 0
	for by := 0; by < h; by += blockDim {
		for bx := 0; bx < w; bx += blockDim {
			n := 0
			for dy := 0; dy < blockDim && by+dy < h; dy++ {
				for dx := 0; dx < blockDim && bx+dx < w; dx++ {
					pix := (by+dy)*w + bx + dx
					a16[n] = perPixelAlpha[pix]
					b16[n] = perPixelBlend[pix]
					n++
				}
			}
			target := bi % p.Arrays // static round-robin
			if scheduled {
				for ai := 0; ai < p.Arrays; ai++ {
					if arrayLoad[ai] < arrayLoad[target] {
						target = ai
					}
				}
			}
			arrayLoad[target] += BlockCycles(a16[:n], b16[:n], p, scheduled)
			bi++
		}
	}
	var worst int64
	for _, l := range arrayLoad {
		if l > worst {
			worst = l
		}
	}
	return worst
}
