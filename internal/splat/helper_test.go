package splat

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ags/internal/frame"
)

// spinHelper attaches a crew to ctx and runs its helper side on a goroutine
// that enters every pass it can: it calls help in a loop rather than waiting
// on the crew's events, so it races the caller for tiles as often as the
// scheduler lets it. The returned stop detaches the crew and waits for the
// goroutine.
func spinHelper(ctx *RenderContext) (stop func()) {
	c := NewCrew()
	ctx.Attach(c)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			c.help()
			runtime.Gosched()
		}
	}()
	return func() {
		done.Store(true)
		wg.Wait()
		ctx.Attach(nil)
	}
}

// TestHelperMatchesSerialPass: a render and a backward pass that a helper
// joins are byte-identical to the serial pass without one, whoever takes
// which tile: dense and sparse, with and without the contribution log, for
// every BackwardOptions combination, at frame sizes whose tile grids are
// 4x3, 7x3 (partial tiles) and 1x1, with one render worker and with three.
// The helper must have taken tiles for the test to mean anything.
func TestHelperMatchesSerialPass(t *testing.T) {
	cloud, _ := determinismScene()
	ctx := NewRenderContext()
	stop := spinHelper(ctx)
	defer stop()
	helped := 0
	for _, sz := range []struct{ w, h int }{{64, 48}, {97, 33}, {16, 16}} {
		cam := testCam(sz.w, sz.h)
		target := determinismTarget(cloud, cam)
		for _, workers := range []int{1, 3} {
			for _, sparse := range []bool{false, true} {
				for _, logged := range []bool{false, true} {
					for b := range 4 {
						opts := Options{Workers: 1, Sparse: sparse, LogContribution: logged}
						bopts := BackwardOptions{GaussianGrads: b&1 != 0, PoseGrads: b&2 != 0, Workers: 1}
						lc := DefaultMappingLoss()
						if sparse {
							lc = DefaultTrackingLoss()
						}
						ref := NewRenderContext()
						wantRes := ref.Render(cloud, cam, opts)
						want := wantRes.Digest()
						wantG := ref.Backward(cloud, cam, wantRes, target, lc, bopts).Digest()

						name := fmt.Sprintf("%dx%d workers %d sparse %v logged %v %+v", sz.w, sz.h, workers, sparse, logged, bopts)
						opts.Workers, bopts.Workers = workers, workers
						for rep := range 3 {
							res := ctx.Render(cloud, cam, opts)
							helped += ctx.slots[helperSlot].tiles
							if res.Digest() != want {
								t.Fatalf("%s, rep %d: render digest differs from the serial pass", name, rep)
							}
							g := ctx.Backward(cloud, cam, res, target, lc, bopts)
							helped += ctx.slots[helperSlot].tiles
							if g.Digest() != wantG {
								t.Fatalf("%s, rep %d: gradient digest differs from the serial pass", name, rep)
							}
						}
					}
				}
			}
		}
	}
	if helped == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatal("the helper took no tile of any pass")
	}
	t.Logf("the helper took %d tiles", helped)
}

// TestHelperServeAndDismiss drives the crew's own entry points: a goroutine
// in Serve takes tiles of the passes opened while it waits, and returns once
// Dismiss is called, after which the context's passes run as before.
func TestHelperServeAndDismiss(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	opts := Options{Workers: 1, LogContribution: true}
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true, Workers: 1}
	lc := DefaultMappingLoss()
	ref := NewRenderContext()
	wantRes := ref.Render(cloud, cam, opts)
	want := wantRes.Digest()
	wantG := ref.Backward(cloud, cam, wantRes, target, lc, bopts).Digest()

	ctx := NewRenderContext()
	c := NewCrew()
	for round := range 3 {
		ctx.Attach(c)
		served := make(chan struct{})
		go func() {
			c.Serve()
			close(served)
		}()
		for i := range 8 {
			res := ctx.Render(cloud, cam, opts)
			g := ctx.Backward(cloud, cam, res, target, lc, bopts)
			if res.Digest() != want || g.Digest() != wantG {
				t.Fatalf("round %d, pass %d: a served pass differs from the serial one", round, i)
			}
		}
		c.Dismiss()
		<-served
		ctx.Attach(nil)
		res := ctx.Render(cloud, cam, opts)
		if res.Digest() != want || ctx.slots[helperSlot].tiles != 0 {
			t.Fatalf("round %d: a detached context's pass differs or was helped", round)
		}
	}
}

// TestHelperPanicReachesCaller: a tile that panics while a helper is in the
// pass panics on the pass's caller, whoever took it. A tile the helper took
// comes back as a *tilePanic carrying the helper's stack; either way the
// pass is closed, the crew is left with no pass open, and the context's next
// pass is the serial one's. The fault is a target whose colour plane stops
// short of the last row of tiles, so only the tiles the cursor hands out
// last panic.
func TestHelperPanicReachesCaller(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	short := &frame.Frame{Color: &frame.Image{W: target.Color.W, H: target.Color.H,
		Pix: target.Color.Pix[:len(target.Color.Pix)-cam.Intr.W*TileSize]}, Depth: target.Depth}
	lc := DefaultMappingLoss()
	bopts := BackwardOptions{GaussianGrads: true, Workers: 1}
	ref := NewRenderContext()
	wantRes := ref.Render(cloud, cam, Options{Workers: 1})
	wantG := ref.Backward(cloud, cam, wantRes, target, lc, bopts).Digest()

	ctx := NewRenderContext()
	stop := spinHelper(ctx)
	defer stop()
	res := ctx.Render(cloud, cam, Options{Workers: 1})
	relayed := 0
	for attempt := 0; attempt < 200 && relayed < 3; attempt++ {
		got := func() (v any) {
			defer func() { v = recover() }()
			ctx.Backward(cloud, cam, res, short, lc, bopts)
			return nil
		}()
		var msg string
		switch p := got.(type) {
		case *tilePanic:
			relayed++
			if msg = p.Error(); !strings.Contains(msg, "backwardOneTile") {
				t.Fatalf("the relayed panic does not carry the helper's stack:\n%s", msg)
			}
		case error:
			msg = p.Error()
		default:
			t.Fatalf("attempt %d: recovered %v (%T), want the tile's panic", attempt, got, got)
		}
		if !strings.Contains(msg, "index out of range") {
			t.Fatalf("attempt %d: the panic is not the tile's: %s", attempt, msg)
		}
		if ctx.crew.open != nil || ctx.pass.fault != nil {
			t.Fatalf("attempt %d: the panicking pass was left open", attempt)
		}
		if g := ctx.Backward(cloud, cam, res, target, lc, bopts); g.Digest() != wantG {
			t.Fatalf("attempt %d: the pass after a panic differs from the serial one", attempt)
		}
	}
	if relayed == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatal("the helper never took the panicking tile")
	}
}
