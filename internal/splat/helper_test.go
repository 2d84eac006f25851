package splat

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/gauss"
	"ags/internal/optim"
	"ags/internal/vecmath"
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

// helperScene is one scene of TestHelperMatchesSerialPass's table.
type helperScene struct {
	name   string
	cloud  *gauss.Cloud
	cam    camera.Camera
	target *frame.Frame
}

// helperScenes returns the scenes the helper equivalence table renders: the
// determinism scene at frame sizes whose tile grids are 4x3, 7x3 (partial
// tiles) and 1x1, a cloud with no Gaussian (every tile table empty), one tiny
// Gaussian confined to a single interior tile, and two random clouds. Every
// target is the perturbed determinism scene, so every loss is non-zero.
func helperScenes() []helperScene {
	det, _ := determinismScene()
	rng := rand.New(rand.NewSource(17))
	single := gauss.NewCloud(1)
	g := gauss.Gaussian{Mean: vecmath.Vec3{X: 0.02, Y: 0.38, Z: 2}, Color: vecmath.Vec3{X: 0.3, Y: 0.6, Z: 0.9}}
	g.SetScale(0.02)
	g.SetOpacity(0.7)
	single.Add(g)
	var out []helperScene
	for _, c := range []struct {
		name  string
		cloud *gauss.Cloud
		w, h  int
	}{
		{"scene 64x48", det, 64, 48},
		{"scene 97x33", det, 97, 33},
		{"scene 16x16", det, 16, 16},
		{"empty", gauss.NewCloud(0), 48, 32},
		{"single tile", single, 48, 32},
		{"random 9", randomCloud(rng, 9), 48, 32},
		{"random 28", randomCloud(rng, 28), 48, 32},
	} {
		cam := testCam(c.w, c.h)
		out = append(out, helperScene{c.name, c.cloud, cam, determinismTarget(det, cam)})
	}
	return out
}

// TestHelperMatchesSerialPass: a render, a backward and a train pass that a
// helper joins are byte-identical to the serial render and backward without
// one, whoever takes which tile, at every GOMAXPROCS of workerCounts: for
// every scene of helperScenes, dense and sparse, with and without the
// contribution log, under the unmasked mapping loss and the
// silhouette-masked tracking loss, for every BackwardOptions combination. A
// Backward on another context's Result is the serial one's too, both ways: the
// helped context's on the serial render, and a plain context's on the helped
// render. The helper must have taken tiles for the test to mean anything.
func TestHelperMatchesSerialPass(t *testing.T) {
	type row struct {
		sc   helperScene
		opts Options
		res  *Result // the serial render, in a context of its own
		want [32]byte
		// The serial Backward's digests, by loss (mapping, tracking) and by
		// BackwardOptions (bit 0 GaussianGrads, bit 1 PoseGrads).
		wantG [2][4][32]byte
	}
	losses := [2]LossConfig{DefaultMappingLoss(), DefaultTrackingLoss()}
	bopts := func(b int) BackwardOptions { return BackwardOptions{GaussianGrads: b&1 != 0, PoseGrads: b&2 != 0} }
	var rows []row
	for _, sc := range helperScenes() {
		for _, sparse := range []bool{false, true} {
			for _, logged := range []bool{false, true} {
				r := row{sc: sc, opts: Options{Sparse: sparse, LogContribution: logged}}
				r.res = NewRenderContext().Render(sc.cloud, sc.cam, r.opts)
				r.want = r.res.Digest()
				for l, lc := range losses {
					for b := range 4 {
						r.wantG[l][b] = NewRenderContext().Backward(sc.cloud, sc.cam, r.res, sc.target, lc, bopts(b)).Digest()
					}
				}
				rows = append(rows, r)
			}
		}
	}

	ctx, plain := NewRenderContext(), NewRenderContext()
	stop := spinHelper(ctx)
	defer stop()
	helped := 0
	for _, procs := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			defer withProcs(procs)()
			for _, r := range rows {
				sc := r.sc
				name := fmt.Sprintf("%s sparse %v logged %v", sc.name, r.opts.Sparse, r.opts.LogContribution)
				res := ctx.Render(sc.cloud, sc.cam, r.opts)
				helped += ctx.slots[helperSlot].tiles
				if res.Digest() != r.want {
					t.Fatalf("%s: render digest differs from the serial pass", name)
				}
				for l, lc := range losses {
					for b := range 4 {
						bo := bopts(b)
						g := ctx.Backward(sc.cloud, sc.cam, res, sc.target, lc, bo)
						helped += ctx.slots[helperSlot].tiles
						if g.Digest() != r.wantG[l][b] {
							t.Fatalf("%s, %+v, %+v: gradient digest differs from the serial pass", name, lc, bo)
						}
						if ctx.Backward(sc.cloud, sc.cam, r.res, sc.target, lc, bo).Digest() != r.wantG[l][b] ||
							plain.Backward(sc.cloud, sc.cam, res, sc.target, lc, bo).Digest() != r.wantG[l][b] {
							t.Fatalf("%s, %+v, %+v: a backward on another context's render differs from the serial pass", name, lc, bo)
						}
					}
				}
				for l, lc := range losses {
					for b := range 4 {
						res, g := ctx.Train(sc.cloud, sc.cam, r.opts, sc.target, lc, bopts(b))
						helped += ctx.slots[helperSlot].tiles
						if res.Digest() != r.want || g.Digest() != r.wantG[l][b] {
							t.Fatalf("%s, %+v, %+v: the train pass differs from the serial render and backward", name, lc, bopts(b))
						}
					}
				}
			}
		})
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
	opts := Options{LogContribution: true}
	bopts := BackwardOptions{GaussianGrads: true, PoseGrads: true}
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

// TestHelperChunkPassesMatchSerial: the Each passes give the bytes of one
// walk on one goroutine with a helper racing the caller for chunks: a
// render's splats (the projection, with the cull geometry and Backward's
// per-splat factors each splat carries), and one Adam step over a flat
// vector. The clouds hold a few chunks and a part, a chunk less one, and one
// Gaussian, some of them behind the camera or outside the image, rendered
// without a skip set, with one and with one shorter than the cloud. The
// helper must have taken chunks for the test to mean anything: where it took
// none (the scheduler may keep it off the processor for a whole round on a
// loaded host), the round is repeated, every pass still compared byte for
// byte, up to maxRounds times.
func TestHelperChunkPassesMatchSerial(t *testing.T) {
	const maxRounds = 200
	rng := rand.New(rand.NewSource(11))
	cam := testCam(64, 48)
	type chunkCase struct {
		cloud *gauss.Cloud
		skip  []bool
		// The Adam step's parameters and gradients.
		params, grads []float64
	}
	var cases []chunkCase
	for _, n := range []int{3*ChunkSize + 37, ChunkSize - 1, 1} {
		cloud := randomCloud(rng, n)
		for id := 3; id < n; id += 5 {
			cloud.At(id).Mean.Z = -1 // behind the camera
		}
		for id := 2; id < n; id += 7 {
			cloud.At(id).Mean.X = 50 // outside the image
		}
		skip := make([]bool, n)
		for id := range skip {
			skip[id] = rng.Intn(3) == 0
		}
		params, grads := make([]float64, 3*n), make([]float64, 3*n)
		for i := range params {
			params[i], grads[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for _, sk := range [][]bool{nil, skip, skip[:n/2]} {
			cases = append(cases, chunkCase{cloud, sk, params, grads})
		}
	}

	ctx := NewRenderContext()
	stop := spinHelper(ctx)
	defer stop()
	round := 0
	for ; round < maxRounds && (round == 0 || ctx.crew.Chunks() == 0); round++ {
		for _, c := range cases {
			want := preprocessInto(nil, c.cloud, cam, c.skip)
			name := fmt.Sprintf("round %d, %d Gaussians, skip set of %d", round, c.cloud.Len(), len(c.skip))
			res := ctx.Render(c.cloud, cam, Options{Skip: c.skip})
			if !bytes.Equal(bytesOf(res.Splats), bytesOf(want)) {
				t.Fatalf("%s: the projection's %d splats differ from one walk's %d", name, len(res.Splats), len(want))
			}

			params := slices.Clone(c.params)
			wantP := slices.Clone(c.params)
			var ref, a optim.Adam
			ref.Step(wantP, c.grads, 0.01)
			a.Begin(len(params))
			ctx.Each(len(params), &adamChunks{a: &a, p: params, g: c.grads})
			gm, gv, _ := a.State()
			wm, wv, _ := ref.State()
			if !bytes.Equal(bytesOf(params), bytesOf(wantP)) || !bytes.Equal(bytesOf(gm), bytesOf(wm)) || !bytes.Equal(bytesOf(gv), bytesOf(wv)) {
				t.Fatalf("%s: the Adam step as an Each pass differs from Step", name)
			}
		}
	}
	if ctx.crew.Chunks() == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatalf("the helper took no chunk of any pass in %d rounds", maxRounds)
	}
	t.Logf("the helper took %d chunks in %d rounds", ctx.crew.Chunks(), round)
}

// bytesOf is the memory of s, for byte-for-byte comparisons that NaN payloads
// and signed zeros cannot slip through.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// adamChunks is one Adam step of a flat parameter vector as an Each pass's
// work: the step Begin opened, applied to elements lo to hi-1.
type adamChunks struct {
	a    *optim.Adam
	p, g []float64
}

func (w *adamChunks) Chunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		w.p[i] = w.a.Update(i, w.p[i], w.g[i], 0.01)
	}
}

// busyChunks is an Each pass's work that spends a while on every element
// and then writes it to v: an index range longer than v panics in its last
// chunk only.
type busyChunks struct{ v []float64 }

func (w *busyChunks) Chunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		x := float64(i)
		for range 64 {
			x = x*0.5 + 1
		}
		w.v[i] = x
	}
}

// TestHelperPanicReachesCaller: a tile or a chunk that panics while a helper
// is in the pass panics on the pass's caller, whoever took it. One the
// helper took comes back as a *tilePanic carrying the helper's stack; either
// way the pass is closed, the crew is left with no pass open, and the
// context's next pass is the serial one's. The faulty tiles are those of a
// backward or a train pass against a target whose colour plane stops short
// of the last row of tiles; the faulty chunk is the last of an Each pass over a range
// longer than the slice it writes. Either way only the tiles or the chunk
// the cursor hands out last panic.
func TestHelperPanicReachesCaller(t *testing.T) {
	cloud, cam := determinismScene()
	target := determinismTarget(cloud, cam)
	short := &frame.Frame{Color: &frame.Image{W: target.Color.W, H: target.Color.H,
		Pix: target.Color.Pix[:len(target.Color.Pix)-cam.Intr.W*TileSize]}, Depth: target.Depth}
	lc := DefaultMappingLoss()
	bopts := BackwardOptions{GaussianGrads: true}
	ref := NewRenderContext()
	wantRes := ref.Render(cloud, cam, Options{})
	wantG := ref.Backward(cloud, cam, wantRes, target, lc, bopts).Digest()
	busy := &busyChunks{v: make([]float64, 32*ChunkSize)}
	wantBusy := make([]float64, len(busy.v))
	(&busyChunks{v: wantBusy}).Chunk(0, len(wantBusy))

	ctx := NewRenderContext()
	stop := spinHelper(ctx)
	defer stop()
	res := ctx.Render(cloud, cam, Options{})
	for _, tc := range []struct {
		name  string
		frame string      // what the helper's stack must name
		fault func()      // the pass with the faulty tiles or chunk
		next  func() bool // the context's next pass, and whether it is the serial one's
	}{
		{"backward tile", "trainOneTile",
			func() { ctx.Backward(cloud, cam, res, short, lc, bopts) },
			func() bool { return ctx.Backward(cloud, cam, res, target, lc, bopts).Digest() == wantG }},
		{"train tile", "trainOneTile",
			func() { ctx.Train(cloud, cam, Options{}, short, lc, bopts) },
			func() bool {
				r, g := ctx.Train(cloud, cam, Options{}, target, lc, bopts)
				return r.Digest() == wantRes.Digest() && g.Digest() == wantG
			}},
		{"Each chunk", "busyChunks",
			func() { ctx.Each(len(busy.v)+ChunkSize/2, busy) },
			func() bool {
				clear(busy.v)
				ctx.Each(len(busy.v), busy)
				return slices.Equal(busy.v, wantBusy)
			}},
	} {
		relayed := 0
		for attempt := 0; attempt < 200 && relayed < 3; attempt++ {
			got := func() (v any) {
				defer func() { v = recover() }()
				tc.fault()
				return nil
			}()
			var msg string
			switch p := got.(type) {
			case *tilePanic:
				relayed++
				if msg = p.Error(); !strings.Contains(msg, tc.frame) {
					t.Fatalf("%s: the relayed panic does not carry the helper's stack:\n%s", tc.name, msg)
				}
			case error:
				msg = p.Error()
			default:
				t.Fatalf("%s, attempt %d: recovered %v (%T), want the pass's panic", tc.name, attempt, got, got)
			}
			if !strings.Contains(msg, "index out of range") {
				t.Fatalf("%s, attempt %d: the panic is not the pass's: %s", tc.name, attempt, msg)
			}
			if ctx.crew.open != nil || ctx.pass.fault != nil || ctx.pass.each != nil {
				t.Fatalf("%s, attempt %d: the panicking pass was left open", tc.name, attempt)
			}
			if !tc.next() {
				t.Fatalf("%s, attempt %d: the pass after a panic differs from the serial one", tc.name, attempt)
			}
		}
		if relayed == 0 && runtime.GOMAXPROCS(0) > 1 {
			t.Fatalf("%s: the helper never took the panicking tile or chunk", tc.name)
		}
	}
}
