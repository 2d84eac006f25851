package nnlite

import "testing"

func TestConvStrideOutSize(t *testing.T) {
	c := Conv2D{InC: 3, OutC: 8, K: 3, Stride: 2, Pad: 1}
	oh, ow := c.OutSize(64, 96)
	if oh != 32 || ow != 48 {
		t.Errorf("OutSize = %dx%d", oh, ow)
	}
}

func TestConvMACCount(t *testing.T) {
	c := Conv2D{InC: 2, OutC: 4, K: 3, Stride: 1, Pad: 1}
	// 4 out channels * 2 in channels * 9 kernel * 8*8 outputs.
	if got := c.MACs(8, 8); got != 4*2*9*64 {
		t.Errorf("MACs = %d", got)
	}
	// Three gates, each a 3x3 conv from hidden+input to hidden channels.
	g := ConvGRU{HiddenC: 4, InputC: 2, K: 3}
	if got := g.MACs(6, 5); got != 3*4*(4+2)*9*30 {
		t.Errorf("GRU MACs = %d", got)
	}
}

// TestPoseWorkloadPinned pins the MAC count slam charges per coarse pose
// estimation (FrameTrace.CoarseMACs). The hardware model's systolic-array
// time, sim_ms_per_frame and every Result.Digest read it, so a moved value
// here is a moved digest: 204816384 is what the benchmark's
// tracker.coarse_macs_per_frame (199695974.4 on desk_ags, 39 of 40 frames)
// implies at 64x48. The values were computed by the runnable network this
// shape table replaced.
func TestPoseWorkloadPinned(t *testing.T) {
	for _, tc := range []struct {
		w, h int
		want int64
	}{
		{64, 48, 204816384},
		{96, 72, 460836864},
		{30, 22, 51157440}, // off the stride grid
		{640, 480, 20481638400},
		{7, 5, 4260096},
	} {
		if got := PoseWorkload(tc.w, tc.h); got != tc.want {
			t.Errorf("PoseWorkload(%d, %d) = %d, want %d", tc.w, tc.h, got, tc.want)
		}
	}
	// Every layer is a convolution, so MACs follow the pixel count.
	if got, want := PoseWorkload(192, 144), 4*PoseWorkload(96, 72); got != want {
		t.Errorf("doubling the resolution gives %d MACs, want 4x = %d", got, want)
	}
}
