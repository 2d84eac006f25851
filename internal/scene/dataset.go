package scene

import (
	"fmt"
	"math"
	"slices"

	"ags/internal/camera"
	"ags/internal/frame"
)

// Config controls dataset generation.
type Config struct {
	Width, Height int
	Frames        int
	Seed          int64
	VFoV          float64 // vertical field of view in radians; 0 = 60 degrees
}

// Sequence is a generated RGB-D dataset with ground-truth poses.
type Sequence struct {
	Name   string
	Intr   camera.Intrinsics
	Frames []*frame.Frame
	Traj   Trajectory
	World  *World
}

// Generate builds the named sequence. Known names are those in Names().
func Generate(name string, cfg Config) (*Sequence, error) {
	builder, ok := scripts()[name]
	if !ok {
		known := Names()
		slices.Sort(known)
		return nil, fmt.Errorf("scene: unknown sequence %q (known: %v)", name, known)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("scene: invalid size %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("scene: invalid frame count %d", cfg.Frames)
	}
	vfov := cfg.VFoV
	if vfov == 0 {
		vfov = math.Pi / 3
	}
	world, script := builder(cfg.Seed)
	if cfg.Frames < RefFrames {
		// Short sequences cover a prefix of the path at full-length
		// per-frame motion, instead of sweeping the whole path faster than
		// any real camera would.
		script.Span = float64(cfg.Frames) / RefFrames
	}
	traj := script.Build(cfg.Frames)
	intr := camera.NewIntrinsics(cfg.Width, cfg.Height, vfov)
	seq := &Sequence{Name: name, Intr: intr, Traj: traj, World: world}
	for i, pose := range traj {
		cam := camera.Camera{Intr: intr, Pose: pose}
		img, depth := world.RenderFrame(cam)
		seq.Frames = append(seq.Frames, &frame.Frame{
			Index:  i,
			Color:  img,
			Depth:  depth,
			GTPose: pose,
		})
	}
	return seq, nil
}

// MustGenerate is Generate but panics on error; for tests and examples where
// the name is a compile-time constant.
func MustGenerate(name string, cfg Config) *Sequence {
	seq, err := Generate(name, cfg)
	if err != nil {
		panic(err)
	}
	return seq
}
