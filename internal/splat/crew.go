package splat

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The participants of a pass, by scratch slot: the caller, then the crew's
// helper.
const (
	callerSlot = iota
	helperSlot
)

// Crew lets one goroutine besides a pass's caller take tiles and chunks of
// the passes run through the contexts it is attached to
// (RenderContext.Attach): the helper, a goroutine that would otherwise wait
// for those passes' owner, as a SLAM system's producer waits for its mapping
// tail. Every pass of such a context is open to it: the tiles of its tile
// passes (Render, Train, Backward), and the chunks of its Each passes, the
// projection's and the owner's own (a mapper's Adam step). The helper calls
// Serve, which takes tiles and chunks of every pass opened while it runs and
// returns once the owner side calls Dismiss. A helper that arrives late, or
// not at all, changes nothing but the time a pass takes: every output is
// byte-identical whoever takes which tile or chunk (see the package doc).
//
// A Crew serves one helper and one owner goroutine at a time. Its event
// channel carries both "a pass is open" and "dismissed", so the helper waits
// on one channel.
type Crew struct {
	mu     sync.Mutex
	left   sync.Cond      // signalled, under mu, when the helper leaves a pass
	open   *RenderContext // the context whose pass is open, nil between passes
	inside bool           // the helper is taking tiles or chunks of open's pass
	tiles  int            // tiles the helper has taken, all passes together
	chunks int            // chunks the helper has taken, all passes together
	// events holds at most one pending event: true for a pass opened since
	// the helper last looked, false once it is dismissed.
	events chan bool
}

// NewCrew returns a crew with no pass open and no helper.
func NewCrew() *Crew {
	c := &Crew{events: make(chan bool, 1)}
	c.left.L = &c.mu
	return c
}

// Serve is the helper's side: it takes tiles and chunks of each pass opened
// through the crew until Dismiss is called, and then returns. A panic in a
// tile or chunk it took is recovered and handed to the pass, whose owner
// raises it again once the pass is through, so it surfaces on the owner's
// goroutine.
func (c *Crew) Serve() {
	for <-c.events {
		c.help()
	}
}

// Dismiss ends the helper's Serve once the helper has seen every event sent
// before it. The owner side calls it after its last pass; it blocks only
// while an earlier event waits to be seen.
func (c *Crew) Dismiss() { c.events <- false }

// Tiles returns how many tiles the helper has taken since the crew was made.
func (c *Crew) Tiles() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tiles
}

// Chunks returns how many chunks the helper has taken since the crew was
// made.
func (c *Crew) Chunks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks
}

// help takes tiles or chunks of the open pass, if there is one, until its
// cursor runs out, and then leaves it.
func (c *Crew) help() {
	c.mu.Lock()
	ctx := c.open
	c.inside = ctx != nil
	c.mu.Unlock()
	if ctx == nil {
		return
	}
	ctx.takeGuarded()
	c.mu.Lock()
	c.tiles += ctx.slots[helperSlot].tiles
	c.chunks += ctx.slots[helperSlot].chunks
	c.inside = false
	c.left.Signal()
	c.mu.Unlock()
}

// begin opens ctx's pass to the helper and wakes it, unless a wake-up is
// already pending (it finds this pass when it takes that one).
func (c *Crew) begin(ctx *RenderContext) {
	c.mu.Lock()
	c.open = ctx
	c.mu.Unlock()
	select {
	case c.events <- true:
	default:
	}
}

// end closes the open pass to the helper and waits until the helper, if it
// joined, has left it.
func (c *Crew) end() {
	c.mu.Lock()
	c.open = nil
	for c.inside {
		c.left.Wait()
	}
	c.mu.Unlock()
}

// Attach makes c the crew of the context's passes; Attach(nil) detaches it.
// A context goes back to a pool detached, so a pooled context's passes have
// no helper.
func (ctx *RenderContext) Attach(c *Crew) { ctx.crew = c }

// ChunkSize is how many elements of an index range one chunk of an Each
// pass covers (the last chunk of a range may be shorter).
const ChunkSize = 128

// passState is the open pass of a context: what its participants share. It
// lives in the context, so a pass allocates nothing to describe itself.
type passState struct {
	// next is the cursor: a participant claims tile or chunk next-1 by
	// adding 1, and stops at a claim past nt.
	next atomic.Int32
	nt   int32
	// n is the length of an Each pass's index range, and each its work: nil
	// for a tile pass.
	n    int
	each Chunker
	// The inputs of the passes that read more than the context's own state:
	// a tile pass (tile), and a projection, an Each pass's work (proj).
	tile tilePass
	proj projectPass
	// mu guards the Result's contribution log, which participants add whole
	// tiles to.
	mu sync.Mutex
	// fault is the panic the helper recovered, which the caller raises again
	// once the pass is through.
	fault *tilePanic
}

// slot is one participant's scratch: what it writes while taking tiles, so
// no two participants share a buffer. Its counters merge in slot order, and
// everything else a tile produces is added under the pass's lock or is per
// tile (the loss and gradient partials, merged in tile order), so the
// outputs do not depend on who took which tile.
type slot struct {
	cull  tileScratch
	steps []blendStep // the blends of the pixel being rendered
	// tiles, chunks, alphaOps, blendOps and pixels (masked pixels of a pass
	// that trains) count this pass's work of the slot.
	tiles, chunks      int
	alphaOps, blendOps int64
	pixels             int
}

// runPass runs the context's prepared pass over nt tiles or chunks: it opens
// the pass to the crew's helper, if a crew is attached, and takes them itself
// until the cursor runs out. It returns once the helper, if it joined, has
// left the pass, and panics with what the helper panicked with. A panic of
// the caller's own tile or chunk ends the pass the same way: nothing is
// claimed after it, and it returns once the helper has left.
//
//ags:hotpath
func (ctx *RenderContext) runPass(nt int) {
	p := &ctx.pass
	p.nt = int32(nt)
	p.next.Store(0)
	for i := range ctx.slots {
		sl := &ctx.slots[i]
		sl.tiles, sl.chunks, sl.alphaOps, sl.blendOps, sl.pixels = 0, 0, 0, 0, 0
	}
	if ctx.crew != nil {
		ctx.crew.begin(ctx)
	}
	defer ctx.endPass()
	ctx.take(callerSlot)
}

// endPass closes the pass: no tile or chunk is claimed after it, and it
// waits for the helper to leave. It drops an Each pass's work, and then
// raises the helper's panic again, on the caller's goroutine.
func (ctx *RenderContext) endPass() {
	p := &ctx.pass
	p.next.Store(p.nt)
	if ctx.crew != nil {
		ctx.crew.end()
	}
	p.each = nil
	if f := p.fault; f != nil {
		p.fault = nil
		panic(f)
	}
}

// takeGuarded takes tiles or chunks in the helper's slot, handing a panic
// to the pass instead of letting it end the helper's goroutine.
func (ctx *RenderContext) takeGuarded() {
	defer ctx.recoverFault()
	ctx.take(helperSlot)
}

// recoverFault keeps the helper's panic for the caller, which reads it once
// the helper has left the pass (Crew.end), and stops the pass's cursor.
func (ctx *RenderContext) recoverFault() {
	v := recover()
	if v == nil {
		return
	}
	p := &ctx.pass
	p.next.Store(p.nt)
	p.fault = &tilePanic{value: v, stack: debug.Stack()}
}

// take claims tiles or chunks from the pass's cursor until it runs out: it
// renders (and back-propagates) each tile in the slot's scratch, and does
// each chunk's share of the pass's work.
//
//ags:hotpath
func (ctx *RenderContext) take(slot int) {
	p := &ctx.pass
	sl := &ctx.slots[slot]
	for {
		i := p.next.Add(1) - 1
		if i >= p.nt {
			return
		}
		if p.each != nil {
			lo := int(i) * ChunkSize
			p.each.Chunk(lo, min(lo+ChunkSize, p.n))
			sl.chunks++
		} else {
			ctx.renderTile(sl, int(i))
			sl.tiles++
		}
	}
}

// Chunker is the work of an Each pass (RenderContext.Each): Chunk does the
// work of the elements lo to hi-1 of the pass's index range. The pass calls
// it once per chunk, on whichever participant took the chunk, so a Chunker
// whose chunks write disjoint data and read nothing another chunk writes
// gives the same bytes whoever took which chunk.
type Chunker interface {
	Chunk(lo, hi int)
}

// Each runs w over the index range [0, n) as a pass of the context: the
// range is cut into chunks of ChunkSize elements, which the pass's cursor
// hands out to the caller and the crew's helper, as it hands out a render's
// tiles. It returns once every chunk is done, and a chunk that panicked on
// the helper panics again on the caller, as a tile does. The pass keeps no
// reference to w once it returns.
//
//ags:hotpath
func (ctx *RenderContext) Each(n int, w Chunker) {
	p := &ctx.pass
	p.n, p.each = n, w
	ctx.runPass(ceilDiv(n, ChunkSize))
}

// tilePanic is what a pass's caller panics with when a tile or chunk another
// participant took panicked: the value it panicked with and that
// participant's stack, which the raise on the caller's goroutine would
// otherwise lose.
type tilePanic struct {
	value any
	stack []byte
}

func (p *tilePanic) Error() string {
	return fmt.Sprintf("splat: tile or chunk panicked: %v\n%s", p.value, p.stack)
}
