package scene

import (
	"math"
	"testing"

	"ags/internal/camera"
	"ags/internal/vecmath"
)

func TestBoxIntersectFrontFace(t *testing.T) {
	b := &Box{Min: v(-1, -1, 1), Max: v(1, 1, 2), Tex: Solid(v(1, 0, 0))}
	h, ok := b.Intersect(v(0, 0, 0), v(0, 0, 1), 1e-6, 100)
	if !ok {
		t.Fatal("ray missed box")
	}
	if math.Abs(h.T-1) > 1e-9 {
		t.Errorf("hit distance %v", h.T)
	}
	if h.Normal.Sub(v(0, 0, -1)).Norm() > 1e-9 {
		t.Errorf("normal %v", h.Normal)
	}
}

func TestBoxIntersectMiss(t *testing.T) {
	b := &Box{Min: v(-1, -1, 1), Max: v(1, 1, 2), Tex: Solid(v(1, 0, 0))}
	if _, ok := b.Intersect(v(0, 5, 0), v(0, 0, 1), 1e-6, 100); ok {
		t.Error("ray should miss")
	}
	// Ray pointing away.
	if _, ok := b.Intersect(v(0, 0, 0), v(0, 0, -1), 1e-6, 100); ok {
		t.Error("backward ray should miss")
	}
}

func TestBoxIntersectFromInside(t *testing.T) {
	b := &Box{Min: v(-1, -1, -1), Max: v(1, 1, 1), Tex: Solid(v(1, 0, 0))}
	h, ok := b.Intersect(v(0, 0, 0), v(0, 0, 1), 1e-6, 100)
	if !ok {
		t.Fatal("interior ray missed exit face")
	}
	if math.Abs(h.T-1) > 1e-9 {
		t.Errorf("exit distance %v", h.T)
	}
	// Normal flips toward the ray origin for exit hits.
	if h.Normal.Dot(v(0, 0, 1)) >= 0 {
		t.Errorf("exit normal %v not facing back", h.Normal)
	}
}

func TestSphereIntersect(t *testing.T) {
	s := &Sphere{Center: v(0, 0, 3), Radius: 1, Tex: Solid(v(0, 1, 0))}
	h, ok := s.Intersect(v(0, 0, 0), v(0, 0, 1), 1e-6, 100)
	if !ok {
		t.Fatal("missed sphere")
	}
	if math.Abs(h.T-2) > 1e-9 {
		t.Errorf("hit at %v", h.T)
	}
	if h.Normal.Sub(v(0, 0, -1)).Norm() > 1e-9 {
		t.Errorf("normal %v", h.Normal)
	}
	if _, ok := s.Intersect(v(0, 5, 0), v(0, 0, 1), 1e-6, 100); ok {
		t.Error("offset ray should miss")
	}
}

func TestRoomShellHitsFromInside(t *testing.T) {
	r := &RoomShell{Min: v(-2, 0, -2), Max: v(2, 3, 2), Tex: Solid(v(1, 1, 1))}
	h, ok := r.Intersect(v(0, 1, 0), v(1, 0, 0), 1e-6, 100)
	if !ok {
		t.Fatal("interior ray missed wall")
	}
	if math.Abs(h.T-2) > 1e-9 {
		t.Errorf("wall at %v", h.T)
	}
	if h.Normal.Sub(v(-1, 0, 0)).Norm() > 1e-9 {
		t.Errorf("inward normal %v", h.Normal)
	}
}

func TestLookAtForwardAndOrthonormal(t *testing.T) {
	eye := v(1, 2, 3)
	target := v(0, 1, 0)
	pose := LookAt(eye, target)
	// The target must land on the optical axis (x=y=0, z>0 in camera space).
	tc := pose.Apply(target)
	if math.Abs(tc.X) > 1e-9 || math.Abs(tc.Y) > 1e-9 || tc.Z <= 0 {
		t.Errorf("target in camera space: %v", tc)
	}
	// The eye maps to the origin.
	if pose.Apply(eye).Norm() > 1e-9 {
		t.Errorf("eye maps to %v", pose.Apply(eye))
	}
	// Rotation is unit quaternion.
	if math.Abs(pose.R.Norm()-1) > 1e-9 {
		t.Error("non-unit rotation")
	}
}

func TestLookAtDegenerateUp(t *testing.T) {
	pose := LookAt(v(0, 0, 0), v(0, 5, 0)) // looking straight up
	if math.Abs(pose.R.Norm()-1) > 1e-9 {
		t.Error("degenerate lookAt produced invalid rotation")
	}
}

func TestTrajectoryStats(t *testing.T) {
	script := MotionScript{
		Eye:    waypoints(v(0, 1, 0), v(1, 1, 0)),
		Target: fixed(v(0, 1, 5)),
	}
	traj := script.Build(11)
	for i := 1; i < len(traj); i++ {
		if d := traj[i].TranslationTo(traj[i-1]); math.Abs(d-0.1) > 1e-6 {
			t.Errorf("step %d translates %v, want 0.1", i, d)
		}
	}
	if meanR := meanRotation(traj); meanR > 0.05 {
		t.Errorf("mean rotation %v for pure translation", meanR)
	}
}

// meanRotation is the trajectory's mean inter-frame rotation in radians.
func meanRotation(traj Trajectory) float64 {
	var sum float64
	for i := 1; i < len(traj); i++ {
		sum += traj[i].R.AngleTo(traj[i-1].R)
	}
	return sum / float64(len(traj)-1)
}

func TestMotionScriptDeterministic(t *testing.T) {
	_, s1 := scripts()["Desk"](7)
	_, s2 := scripts()["Desk"](7)
	t1 := s1.Build(10)
	t2 := s2.Build(10)
	for i := range t1 {
		if t1[i].T.Sub(t2[i].T).Norm() > 0 {
			t.Fatal("same seed produced different trajectories")
		}
	}
	_, s3 := scripts()["Desk"](8)
	t3 := s3.Build(10)
	diff := false
	for i := range t1 {
		if t1[i].T.Sub(t3[i].T).Norm() > 0 {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical jitter")
	}
}

func TestGenerateUnknownSequence(t *testing.T) {
	if _, err := Generate("NotAScene", Config{Width: 96, Height: 72, Frames: 40, Seed: 1}); err == nil {
		t.Error("unknown sequence accepted")
	}
	if _, err := Generate("Desk", Config{Width: 0, Height: 10, Frames: 5}); err == nil {
		t.Error("invalid size accepted")
	}
	if _, err := Generate("Desk", Config{Width: 10, Height: 10, Frames: 0}); err == nil {
		t.Error("invalid frame count accepted")
	}
}

func TestGenerateDeskSequence(t *testing.T) {
	cfg := Config{Width: 48, Height: 36, Frames: 5, Seed: 1}
	seq, err := Generate("Desk", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frames) != 5 {
		t.Fatalf("frames = %d", len(seq.Frames))
	}
	for _, f := range seq.Frames {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		// A room scene must have near-total depth coverage and non-trivial
		// color variance.
		valid := 0
		var minD, maxD = math.Inf(1), 0.0
		for _, d := range f.Depth.D {
			if d > 0 {
				valid++
				minD = math.Min(minD, d)
				maxD = math.Max(maxD, d)
			}
		}
		if float64(valid) < 0.99*float64(len(f.Depth.D)) {
			t.Fatalf("frame %d: only %d/%d pixels have depth", f.Index, valid, len(f.Depth.D))
		}
		if maxD <= minD {
			t.Fatalf("frame %d: degenerate depth range", f.Index)
		}
	}
	// Consecutive frames must differ (the camera moves) but not completely.
	d01 := frameDiff(seq, 0, 1)
	if d01 == 0 {
		t.Error("consecutive frames identical")
	}
	if d01 > 0.5 {
		t.Errorf("consecutive frames differ too much: %v", d01)
	}
}

func frameDiff(seq *Sequence, i, j int) float64 {
	var sum float64
	a, b := seq.Frames[i].Color, seq.Frames[j].Color
	for k := range a.Pix {
		d := a.Pix[k].Sub(b.Pix[k])
		sum += max(math.Abs(d.X), math.Abs(d.Y), math.Abs(d.Z))
	}
	return sum / float64(len(a.Pix))
}

func TestAllSequencesGenerate(t *testing.T) {
	cfg := Config{Width: 32, Height: 24, Frames: 3, Seed: 1}
	for _, name := range Names() {
		seq, err := Generate(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(seq.Frames) != 3 {
			t.Fatalf("%s: %d frames", name, len(seq.Frames))
		}
	}
}

func TestXyzHasHigherCovisibilityMotionThanDesk2(t *testing.T) {
	// The sequence motion profiles drive every covisibility experiment:
	// Xyz must rotate much less per frame than Desk2.
	cfg := Config{Width: 32, Height: 24, Frames: 20, Seed: 1}
	xyz := MustGenerate("Xyz", cfg)
	desk2 := MustGenerate("Desk2", cfg)
	rotXyz, rotDesk2 := meanRotation(xyz.Traj), meanRotation(desk2.Traj)
	if rotXyz >= rotDesk2 {
		t.Errorf("rotation per frame: Xyz %v >= Desk2 %v", rotXyz, rotDesk2)
	}
}

func TestDepthMatchesRaycastGeometry(t *testing.T) {
	// Depth must be camera-space Z, not ray length: verify against a known
	// flat wall.
	w := &World{
		Objects:    []Object{&Box{Min: v(-10, -10, 5), Max: v(10, 10, 6), Tex: Solid(v(1, 1, 1))}},
		Lights:     defaultLights(),
		Ambient:    0.5,
		Background: v(0, 0, 0),
	}
	intr := camera.NewIntrinsics(32, 24, math.Pi/3)
	cam := camera.Camera{Intr: intr, Pose: vecmath.PoseIdentity()}
	_, depth := w.RenderFrame(cam)
	// Every pixel sees the wall plane at z=5 exactly (camera-space Z).
	for y := 0; y < 24; y += 7 {
		for x := 0; x < 32; x += 9 {
			if d := depth.At(x, y); math.Abs(d-5) > 1e-6 {
				t.Fatalf("depth(%d,%d) = %v, want 5", x, y, d)
			}
		}
	}
}
