package slam

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/scene"
	"ags/internal/splat"
)

// ServerConfig sizes a Server's shared resources.
type ServerConfig struct {
	// ContextCapacity bounds how many idle render contexts the server's
	// splat.ContextPool retains across sessions (0 = 2 x GOMAXPROCS). In-use
	// contexts are not counted: a frame always gets a context, a miss
	// just allocates a fresh one.
	ContextCapacity int
}

// Server owns the per-host resources live SLAM streams share — today the
// bounded render-context pool — and opens Sessions over them. A session holds
// two contexts while a Push runs (one for the frame's tracking, one for the
// previous frame's mapping beside it) and none between pushes, so N
// concurrent streams peak at 2N resident contexts while idle streams pin
// none, and outputs stay digest-identical to single-session runs at every
// GOMAXPROCS and session interleaving (the pipeline shares no mutable
// state across sessions besides the pool, and pooled contexts carry nothing
// that affects outputs).
//
// A Server is safe for concurrent use.
type Server struct {
	cfg  ServerConfig
	pool *splat.ContextPool

	mu     sync.Mutex
	open   int // sessions opened and not yet closed
	closed bool
}

// NewServer returns a server with its own context pool.
func NewServer(cfg ServerConfig) *Server {
	if cfg.ContextCapacity <= 0 {
		cfg.ContextCapacity = 2 * runtime.GOMAXPROCS(0)
	}
	return &Server{cfg: cfg, pool: splat.NewContextPool(cfg.ContextCapacity)}
}

var (
	defaultServerOnce sync.Once
	defaultServer     *Server
)

// DefaultServer returns the process-wide server behind the package-level
// conveniences: Run opens its session here, New draws standalone systems'
// contexts from its pool, and EvaluatePSNR borrows evaluation contexts from
// it. Multi-tenant deployments that want their own bounds create a Server
// explicitly.
func DefaultServer() *Server {
	defaultServerOnce.Do(func() { defaultServer = NewServer(ServerConfig{}) })
	return defaultServer
}

// ContextPool exposes the server's render-context pool.
func (sv *Server) ContextPool() *splat.ContextPool { return sv.pool }

// PoolStats snapshots the context pool's counters.
func (sv *Server) PoolStats() splat.PoolStats { return sv.pool.Stats() }

// Close marks the server closed so further Opens fail. It errors while
// sessions are still open — close them first.
func (sv *Server) Close() error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.open > 0 {
		return fmt.Errorf("slam: server has %d open session(s)", sv.open)
	}
	sv.closed = true
	return nil
}

// Open starts a live session: one camera stream, processed in frame order by
// its producer's Push calls, rendering through the server's context pool. The
// name labels the session's final Result (its Sequence field). It fails on a
// closed server.
//
// A session is a serving venue: it keeps no per-frame history, only the
// running digest each frame is folded into, so what it holds, snapshots and
// returns from Close is the map, the key-frame window and a few hundred bytes
// however long the stream. Its Result.Digest and ATE equal every other
// venue's; for a Result to feed the cycle-level hardware models, use Run.
//
// The intrinsics may come from a remote OPEN, so a camera with no pixels or no
// focal length is refused here and never sized a render context from.
func (sv *Server) Open(name string, cfg Config, intr camera.Intrinsics) (*Session, error) {
	if err := intr.Validate(); err != nil {
		return nil, fmt.Errorf("slam: open %q: %w", name, err)
	}
	return sv.start(name, newSystem(cfg, intr, sv.pool, serving))
}

// RestoreSession opens a session whose system is rebuilt from snapshot bytes
// (see System.Snapshot) and from held, the frames the snapshot names without a
// body because its requester kept them (see System.AppendSnapshot): exactly
// those, each at its position, or the restore is refused with ErrFrameTable.
// The session keeps no reference to snap and adopts the held frames. It
// returns the session and how many frames the snapshot had already processed:
// the index of the next frame the producer should Push. Pushing the remainder
// of the original stream yields a Close Result digest-identical to the
// uninterrupted session. Like Open it is a serving venue: it records no trace
// detail (a snapshot carries none, whichever venue took it).
func (sv *Server) RestoreSession(name string, snap []byte, held []HeldFrame) (*Session, int, error) {
	sys, err := restoreSystem(snap, held, sv.pool, serving)
	if err != nil {
		return nil, 0, err
	}
	s, err := sv.start(name, sys)
	if err != nil {
		return nil, 0, err
	}
	return s, sys.FrameCount(), nil
}

// start admits a session over sys, checking the server state under the same
// lock that counts it open, so a session can never slip onto a server
// after Close succeeded. A server that refuses the session closes the system.
func (sv *Server) start(name string, sys *System) (*Session, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		sys.Close()
		return nil, fmt.Errorf("slam: server is closed")
	}
	sv.open++
	return &Session{name: name, sv: sv, sys: sys}, nil
}

func (sv *Server) sessionClosed() {
	sv.mu.Lock()
	sv.open--
	sv.mu.Unlock()
}

// Run streams a whole sequence through one session, named after it: the
// open → push-every-frame → close pattern as a single call on the caller's
// goroutine, shared by the package-level Run, the serving CLIs, and the bench
// experiments. On a Push failure the session is closed and the push error
// returned. Run is an offline venue: unlike an Open session, its Result's
// trace carries the detail the hardware models replay, on every task with
// Iters > 0.
func (sv *Server) Run(cfg Config, seq *scene.Sequence) (*Result, error) {
	sess, err := sv.start(seq.Name, newSystem(cfg, seq.Intr, sv.pool, offline))
	if err != nil {
		return nil, err
	}
	for _, f := range seq.Frames {
		if err := sess.Push(f); err != nil {
			sess.Close()
			return nil, err
		}
	}
	return sess.Close()
}

// Session is one live SLAM sequence on a Server. Its calls (Push,
// AppendSnapshot, Close) must come from a single goroutine, the producer's,
// and each does its work on it: Push runs the frame through the system and
// returns once the frame's pose is committed, leaving the frame's mapping
// pending for the next Push to run beside its tracking (see System), so the
// order the producer called in is the order things happen in. Close returns
// the session's output, the final Result — the same value a single-tenant Run
// of the same frames produces, digest for digest.
//
// A session fails alone. An error from a frame, and a panic anywhere a
// producer call runs the system (a frame, a snapshot, the final Finish and
// Close, and so a mapping tail's panic, which resurfaces at the next join),
// become the session's error; a panic's error carries the panicking
// goroutine's stack. The call that hit it returns it, from then on Push,
// AppendSnapshot and Close report it, and the server's other sessions never
// notice. A panic in a tile that the other participant of a splat pass took
// (the producer helping the session's tail) is recovered there and raised
// again by the pass's caller, so it takes the same path.
type Session struct {
	name string
	sv   *Server
	sys  *System

	// closed, res and err belong to the producer goroutine.
	closed bool
	res    *Result
	err    error
}

// Name returns the session's label.
func (s *Session) Name() string { return s.name }

// Push processes the next frame of the stream on the caller's goroutine: it
// is the system's ProcessFrame, so the frame's tracking runs beside the
// previous frame's mapping, and Push returns with this frame's mapping
// pending, holding no render context, for the next Push (or Close) to run. A
// frame the system rejects, or a panic, fails this Push and the session;
// Push also fails once the session has errored or been closed. Push and
// Close must come from the same goroutine (one producer per session).
func (s *Session) Push(f *frame.Frame) error {
	if s.closed {
		return fmt.Errorf("slam: session %q: push after Close", s.name)
	}
	if s.err == nil {
		s.guard(func() {
			if err := s.sys.ProcessFrame(f); err != nil {
				s.fail(err)
			}
		})
	}
	return s.failure()
}

// Close ends the stream: it joins the last frame's mapping, returns the final
// Result and leaves the server. It is idempotent — further calls return the
// same Result — and safe to call after a Push error.
func (s *Session) Close() (*Result, error) {
	if s.closed {
		return s.res, s.err
	}
	s.closed = true
	if s.err == nil {
		s.guard(func() { s.res = s.sys.Finish(s.name) })
	}
	s.guard(s.sys.Close)
	s.sv.sessionClosed()
	return s.res, s.err
}

// AppendSnapshot serializes the session's state between frames and appends
// it to dst (see System.AppendSnapshot for how dst grows and what have leaves
// out): every frame pushed before the call is in it and none pushed after it
// is, and the last frame's mapping goes in pending (it joins nothing, so the
// session runs on unperturbed). A session restored from those bytes and fed
// the remaining frames closes with a Result digest-identical to this
// session's. AppendSnapshot shares the
// producer contract of Push and Close (one goroutine); it fails after Close or
// once the session has errored, its own encoding's panic included, and then
// returns dst as it was.
func (s *Session) AppendSnapshot(dst []byte, have []int) ([]byte, error) {
	if s.closed {
		return dst, fmt.Errorf("slam: session %q: snapshot after Close", s.name)
	}
	out := dst
	if s.err == nil {
		s.guard(func() { out = s.sys.AppendSnapshot(dst, have) })
	}
	if err := s.failure(); err != nil {
		return dst, err
	}
	return out, nil
}

// guard is the one recover between the system and the process: it runs call
// and fails the session with whatever call panicked with. A tail's panic
// arrives as the *tailPanic a join re-raised, which already carries the tail
// goroutine's stack; any other value gets the stack it was raised on.
func (s *Session) guard(call func()) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case *tailPanic:
			s.fail(v)
		default:
			s.fail(fmt.Errorf("slam: panic: %v\n%s", v, debug.Stack()))
		}
	}()
	call()
}

// fail records the session's first error.
func (s *Session) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// failure is the error a producer call reports for a failed session, nil for
// a healthy one.
func (s *Session) failure() error {
	if s.err == nil {
		return nil
	}
	return fmt.Errorf("session %q: %w", s.name, s.err) // s.err carries the slam: prefix
}
