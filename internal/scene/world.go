package scene

import (
	"runtime"
	"sync"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/vecmath"
)

// World is a collection of objects with simple directional lighting.
type World struct {
	Objects    []Object
	Background vecmath.Vec3
	// Lights are directions TO the light (unit vectors) with intensities.
	Lights []Light
	// Ambient is the base illumination applied to every surface.
	Ambient float64
}

// Light is a directional light source.
type Light struct {
	Dir       vecmath.Vec3
	Intensity float64
}

// defaultLights gives mild two-source lighting so geometry reads without
// harsh shadows (no shadow rays are traced; SLAM does not need them).
func defaultLights() []Light {
	return []Light{
		{Dir: vecmath.Vec3{X: 0.4, Y: 0.8, Z: -0.45}.Normalized(), Intensity: 0.45},
		{Dir: vecmath.Vec3{X: -0.6, Y: 0.5, Z: 0.6}.Normalized(), Intensity: 0.25},
	}
}

// traceHit returns the nearest hit along the ray.
func (w *World) traceHit(origin, dir vecmath.Vec3) (Hit, bool) {
	const tMax = 100.0
	best := Hit{T: tMax}
	found := false
	for _, obj := range w.Objects {
		if h, ok := obj.Intersect(origin, dir, 1e-6, best.T); ok {
			best = h
			found = true
		}
	}
	return best, found
}

// shade applies ambient plus Lambertian lighting to a hit.
func (w *World) shade(h Hit) vecmath.Vec3 {
	s := w.Ambient
	for _, l := range w.Lights {
		if d := h.Normal.Dot(l.Dir); d > 0 {
			s += d * l.Intensity
		}
	}
	return h.Albedo.Scale(s).Clamp(0, 1)
}

// RenderFrame ray-traces an RGB-D frame from the given camera. Depth is the
// camera-space Z of the hit point — the convention RGB-D sensors (and the
// splatting renderer) use.
func (w *World) RenderFrame(cam camera.Camera) (*frame.Image, *frame.DepthMap) {
	img := frame.NewImage(cam.Intr.W, cam.Intr.H)
	depth := frame.NewDepthMap(cam.Intr.W, cam.Intr.H)
	workers := runtime.GOMAXPROCS(0)
	if workers > cam.Intr.H {
		workers = cam.Intr.H
	}
	var wg sync.WaitGroup
	rows := make(chan int, cam.Intr.H)
	for y := 0; y < cam.Intr.H; y++ {
		rows <- y
	}
	close(rows)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for y := range rows {
				for x := 0; x < cam.Intr.W; x++ {
					origin, dir := cam.Ray(x, y)
					h, ok := w.traceHit(origin, dir)
					if !ok {
						img.Set(x, y, w.Background)
						continue
					}
					img.Set(x, y, w.shade(h))
					depth.Set(x, y, cam.Pose.Apply(h.Point).Z)
				}
			}
		}()
	}
	wg.Wait()
	return img, depth
}
