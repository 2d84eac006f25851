package gpe

import (
	"math/rand"
	"testing"
)

func TestBlockCyclesNaiveIsMaxPixel(t *testing.T) {
	p := DefaultParams(1)
	alpha := make([]int32, 16)
	blend := make([]int32, 16)
	alpha[3], blend[3] = 10, 5 // one busy pixel
	want := int64(10*p.AlphaCycles + 5*p.BlendCycles)
	if got := BlockCycles(alpha, blend, p, false); got != want {
		t.Errorf("naive = %d, want %d", got, want)
	}
}

func TestScheduledNeverSlowerThanNaive(t *testing.T) {
	p := DefaultParams(1)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		alpha := make([]int32, 16)
		blend := make([]int32, 16)
		for i := range alpha {
			alpha[i] = int32(rng.Intn(60))
			blend[i] = int32(rng.Intn(int(alpha[i]) + 1))
		}
		n := BlockCycles(alpha, blend, p, false)
		s := BlockCycles(alpha, blend, p, true)
		// Allow the scheduler-overhead percentage.
		if float64(s) > float64(n)*1.06+1 {
			t.Fatalf("scheduled %d slower than naive %d", s, n)
		}
	}
}

func TestScheduledHelpsOnImbalance(t *testing.T) {
	p := DefaultParams(1)
	alpha := make([]int32, 16)
	blend := make([]int32, 16)
	// One pixel does all the work (Fig. 13's GPE2 case).
	alpha[0], blend[0] = 160, 4
	n := BlockCycles(alpha, blend, p, false)
	s := BlockCycles(alpha, blend, p, true)
	if float64(s) > 0.25*float64(n) {
		t.Errorf("scheduler gained too little: naive %d scheduled %d", n, s)
	}
}

func TestScheduledNoGainOnBalanced(t *testing.T) {
	p := DefaultParams(1)
	alpha := make([]int32, 16)
	blend := make([]int32, 16)
	for i := range alpha {
		alpha[i], blend[i] = 20, 10
	}
	n := BlockCycles(alpha, blend, p, false)
	s := BlockCycles(alpha, blend, p, true)
	// Balanced work: scheduling only adds its overhead.
	if s < n {
		t.Errorf("scheduled %d beat perfectly balanced naive %d", s, n)
	}
}

func TestBlendChainBoundsSchedule(t *testing.T) {
	p := DefaultParams(1)
	alpha := make([]int32, 16)
	blend := make([]int32, 16)
	blend[7] = 100 // long dependent blend chain, no alpha work
	s := BlockCycles(alpha, blend, p, true)
	if s < int64(100*p.BlendCycles) {
		t.Errorf("schedule %d violates the blend dependency bound", s)
	}
}

func TestFrameCyclesScalesWithArrays(t *testing.T) {
	w, h := 32, 32
	alpha := make([]int32, w*h)
	blend := make([]int32, w*h)
	rng := rand.New(rand.NewSource(2))
	for i := range alpha {
		alpha[i] = int32(rng.Intn(40))
		blend[i] = alpha[i] / 2
	}
	one := FrameCycles(alpha, blend, w, h, DefaultParams(1), true)
	four := FrameCycles(alpha, blend, w, h, DefaultParams(4), true)
	ratio := float64(one) / float64(four)
	if ratio < 3 || ratio > 4.5 {
		t.Errorf("4 arrays gave %vx speedup", ratio)
	}
}

func TestFrameCyclesSizeMismatch(t *testing.T) {
	if got := FrameCycles(make([]int32, 10), make([]int32, 10), 4, 4, DefaultParams(1), true); got != 0 {
		t.Errorf("mismatched sizes returned %d", got)
	}
}

func TestUtilizationImprovedByScheduler(t *testing.T) {
	w, h := 16, 16
	alpha := make([]int32, w*h)
	blend := make([]int32, w*h)
	rng := rand.New(rand.NewSource(3))
	// Skewed workload: a few pixels extremely busy (early termination and
	// selective mapping make real workloads look like this).
	for i := range alpha {
		if rng.Intn(8) == 0 {
			alpha[i] = 120
			blend[i] = 30
		} else {
			alpha[i] = 5
			blend[i] = 2
		}
	}
	p := DefaultParams(2)
	// The useful work is the same either way, so utilization rises exactly
	// when the frame takes fewer cycles.
	un := FrameCycles(alpha, blend, w, h, p, false)
	us := FrameCycles(alpha, blend, w, h, p, true)
	if us >= un {
		t.Errorf("scheduler did not raise utilization: %d -> %d frame cycles", un, us)
	}
}
