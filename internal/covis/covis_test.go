package covis

import (
	"fmt"
	"reflect"
	"testing"

	"ags/internal/codec"
	"ags/internal/frame"
	"ags/internal/scene"
	"ags/internal/vecmath"
)

func TestCompareReturnsItsMotionEstimate(t *testing.T) {
	// The result Compare hands back (whose SADOps the pipeline charges) is the
	// ME of the pair it compared, and the score is that result's.
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 3, Seed: 1})
	d := NewDetector()
	score, got, err := d.Compare(seq.Frames[0].Color, seq.Frames[1].Color)
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.MotionEstimate(seq.Frames[0].Color, seq.Frames[1].Color, d.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Compare's result differs from a direct MotionEstimate of the pair")
	}
	norm := float64(want.SumMinSAD()) / float64(want.MaxPossibleSAD())
	if wantScore := Score(1 - sensitivity*norm); score != wantScore {
		t.Errorf("score %v, want %v from the returned result", score, wantScore)
	}
}

func TestIdenticalFramesFullCovisibility(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 2, Seed: 1})
	d := NewDetector()
	s, res, err := d.Compare(seq.Frames[0].Color, seq.Frames[0].Color)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("self-covisibility = %v", s)
	}
	if res == nil || res.SADOps == 0 {
		t.Error("Compare returned no ME result")
	}
}

func TestAdjacentFramesHigherThanDistant(t *testing.T) {
	seq := scene.MustGenerate("Desk2", scene.Config{Width: 64, Height: 48, Frames: 12, Seed: 1})
	d := NewDetector()
	adj, _, err := d.Compare(seq.Frames[0].Color, seq.Frames[1].Color)
	if err != nil {
		t.Fatal(err)
	}
	far, _, err := d.Compare(seq.Frames[0].Color, seq.Frames[11].Color)
	if err != nil {
		t.Fatal(err)
	}
	if adj <= far {
		t.Errorf("adjacent covisibility %v <= distant %v", adj, far)
	}
}

func TestXyzMoreCovisibleThanRoom(t *testing.T) {
	// The slow-translation sequence must show higher adjacent-frame
	// covisibility than the fast-rotation sweep — the premise of the paper's
	// movement-adaptive tracking.
	cfg := scene.Config{Width: 64, Height: 48, Frames: 8, Seed: 1}
	xyz := scene.MustGenerate("Xyz", cfg)
	room := scene.MustGenerate("Room", cfg)
	d := NewDetector()
	mean := func(s *scene.Sequence) float64 {
		var sum float64
		for i := 1; i < len(s.Frames); i++ {
			sc, _, err := d.Compare(s.Frames[i-1].Color, s.Frames[i].Color)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(sc)
		}
		return sum / float64(len(s.Frames)-1)
	}
	mx, mr := mean(xyz), mean(room)
	if mx <= mr {
		t.Errorf("mean covisibility: Xyz %v <= Room %v", mx, mr)
	}
}

// TestDetectorCacheMatchesOneShot drives one detector through whole
// sequences the way the pipeline does — each frame against the previous frame
// and against the last key frame, which moves on when covisibility drops — and
// requires every comparison to equal a one-shot MotionEstimate of the pair,
// so a kept luma plane is never another image's. An image compared with
// itself, and a size mismatch between two comparisons, are covered too.
func TestDetectorCacheMatchesOneShot(t *testing.T) {
	same := func(t *testing.T, d *Detector, prev, cur *frame.Image, label string) {
		t.Helper()
		score, got, err := d.Compare(prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.MotionEstimate(prev, cur, d.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		norm := float64(want.SumMinSAD()) / float64(want.MaxPossibleSAD())
		if !reflect.DeepEqual(got, want) || score != Score(min(max(1-sensitivity*norm, 0), 1)) {
			t.Fatalf("%s: the detector's comparison differs from a one-shot MotionEstimate", label)
		}
	}
	for _, name := range []string{"Desk", "S2"} {
		t.Run(name, func(t *testing.T) {
			seq := scene.MustGenerate(name, scene.Config{Width: 64, Height: 48, Frames: 40, Seed: 1})
			d := NewDetector()
			key, keys := seq.Frames[0].Color, 1
			for i := 1; i < len(seq.Frames); i++ {
				prev, cur := seq.Frames[i-1].Color, seq.Frames[i].Color
				same(t, d, prev, cur, fmt.Sprintf("frame %d against the previous frame", i))
				same(t, d, key, cur, fmt.Sprintf("frame %d against the key frame", i))
				if keyFC, _, _ := d.Compare(key, cur); keyFC < 0.8 {
					key, keys = cur, keys+1
				}
				if i%7 == 0 {
					same(t, d, cur, cur, fmt.Sprintf("frame %d against itself", i))
				}
			}
			if keys < 2 {
				t.Fatalf("the key frame never moved on %s", name)
			}
		})
	}

	// A size mismatch is an error, and it leaves no plane that a later
	// comparison would read for another image.
	seq := scene.MustGenerate("Desk", scene.Config{Width: 64, Height: 48, Frames: 3, Seed: 1})
	small := scene.MustGenerate("Desk", scene.Config{Width: 48, Height: 36, Frames: 2, Seed: 1})
	d := NewDetector()
	same(t, d, seq.Frames[0].Color, seq.Frames[1].Color, "before the mismatch")
	if _, res, err := d.Compare(seq.Frames[1].Color, small.Frames[0].Color); err == nil || res != nil {
		t.Fatalf("a size mismatch returned %v, %v", res, err)
	}
	same(t, d, small.Frames[0].Color, small.Frames[1].Color, "the smaller pair after the mismatch")
	same(t, d, seq.Frames[1].Color, seq.Frames[2].Color, "the larger pair after the mismatch")
	same(t, d, seq.Frames[0].Color, seq.Frames[2].Color, "an evicted image after the mismatch")
}

// TestDetectorAllocBudget: a comparison of two images the detector holds
// converts nothing and re-makes no scratch: it allocates only the
// codec.Result it returns (the struct and its two per-block slices).
func TestDetectorAllocBudget(t *testing.T) {
	seq := scene.MustGenerate("Desk", scene.Config{Width: 64, Height: 48, Frames: 2, Seed: 1})
	prev, cur := seq.Frames[0].Color, seq.Frames[1].Color
	d := NewDetector()
	if _, _, err := d.Compare(prev, cur); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { d.Compare(prev, cur) }); allocs > 3 {
		t.Errorf("a comparison of held images allocates %.1f times, budget 3", allocs)
	}
}

func TestLevelOfBoundaries(t *testing.T) {
	cases := []struct {
		s    Score
		want Level
	}{
		{0.0, 1}, {0.19, 1}, {0.2, 2}, {0.45, 3}, {0.65, 4}, {0.8, 5}, {1.0, 5},
	}
	for _, c := range cases {
		if got := LevelOf(c.s); got != c.want {
			t.Errorf("LevelOf(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestBandBoundaries(t *testing.T) {
	cases := []struct {
		s    Score
		want string
	}{
		{0.9, "High"}, {0.75, "High"}, {0.6, "Medium"}, {0.45, "Medium"}, {0.3, "Low"},
	}
	for _, c := range cases {
		if got := Band(c.s); got != c.want {
			t.Errorf("Band(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestScoreClampedToUnitInterval(t *testing.T) {
	// An all-black frame against an all-white one is every pixel's worst
	// SAD, so the scaled SAD is far beyond 1: the score must clamp to
	// exactly 0 rather than go negative.
	black, white := frame.NewImage(48, 36), frame.NewImage(48, 36)
	for i := range white.Pix {
		white.Pix[i] = vecmath.Vec3{X: 1, Y: 1, Z: 1}
	}
	s, _, err := NewDetector().Compare(black, white)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("black against white scored %v, want exactly 0", s)
	}
}
