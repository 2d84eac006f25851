package optim

import (
	"math"
	"testing"
)

// fakeGrads returns a deterministic gradient vector for one step.
func fakeGrads(step, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = math.Sin(float64(step*31+i)) * 0.1
	}
	return g
}

// TestAdamRemapContinuesSurvivors is the bit-transparency property compaction
// rests on: after remapping moments through a permutation that drops a block,
// the surviving blocks' next update is bitwise the update the full-length
// optimizer would have given them.
func TestAdamRemapContinuesSurvivors(t *testing.T) {
	const n, stride, warm = 5, 2, 3
	full := NewAdam(1e-2)
	packed := NewAdam(1e-2)
	pFull := make([]float64, n*stride)
	pPacked := make([]float64, n*stride)
	for i := range pFull {
		pFull[i] = float64(i) * 0.01
		pPacked[i] = pFull[i]
	}
	for s := 0; s < warm; s++ {
		g := fakeGrads(s, n*stride)
		full.Step(pFull, g)
		packed.Step(pPacked, g)
	}

	// Drop block 2: survivors 0,1,3,4 pack to 0,1,2,3; the dropped block maps
	// to -1.
	remap := []int32{0, 1, -1, 2, 3}
	const newN = 4
	survivors := []int{0, 1, 3, 4}
	packed.Remap(stride, remap, newN)

	pk := make([]float64, newN*stride)
	for nw, old := range survivors {
		copy(pk[nw*stride:(nw+1)*stride], pPacked[old*stride:(old+1)*stride])
	}
	gFull := fakeGrads(warm, n*stride)
	gk := make([]float64, newN*stride)
	for nw, old := range survivors {
		copy(gk[nw*stride:(nw+1)*stride], gFull[old*stride:(old+1)*stride])
	}
	full.Step(pFull, gFull)
	packed.Step(pk, gk)
	for nw, old := range survivors {
		for j := 0; j < stride; j++ {
			if pk[nw*stride+j] != pFull[old*stride+j] {
				t.Fatalf("survivor block %d elem %d: packed %v != full %v",
					old, j, pk[nw*stride+j], pFull[old*stride+j])
			}
		}
	}
}

// TestAdamRemapStaleLengthResets: when the parameter vector grew since the
// last Step, the un-remapped timeline's next Step would reinitialize the
// moments — Remap must mirror that instead of remapping stale state.
func TestAdamRemapStaleLengthResets(t *testing.T) {
	a := NewAdam(1e-2)
	p := []float64{1, 2, 3}
	a.Step(p, []float64{0.1, 0.2, 0.3})
	// Moments cover 3 blocks of stride 1; pretend the cloud grew to 4.
	a.Remap(1, []int32{0, 1, 2, 3}, 4)
	m, v, step := a.State()
	if m != nil || v != nil || step != 0 {
		t.Fatalf("stale remap kept state: m=%v v=%v step=%d", m, v, step)
	}
}
