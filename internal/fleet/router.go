package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"ags/internal/camera"
	"ags/internal/frame"
	"ags/internal/slam"
)

// Router is the client-side coordinator: it knows the fleet's nodes, polls
// their stats over per-node control connections, places each new stream on
// the least-loaded node (see Candidates), and falls through the candidate
// order when a node bounces an open with ErrAdmission or ErrDraining. Each
// stream gets its own dedicated connection; the router is safe for
// concurrent Opens, while every Stream keeps slam's one-producer contract
// (Push/Close/migration from a single goroutine).
type Router struct {
	mu    sync.Mutex
	nodes []*routerNode

	// Placement accounting for the serving report: how many streams landed
	// on their first-choice candidate, how many migrated mid-stream, and how
	// many recovered from unclean node loss (with the frames replayed to do
	// it).
	placements     int
	primaryHits    int
	migrations     int
	recoveries     int
	replayedFrames int
}

// routerNode is the router's handle on one fleet node: its dial address and
// a long-lived control connection for stats and drain, serialized by mu
// (streams use their own connections).
type routerNode struct {
	name string
	addr string

	mu          sync.Mutex
	ctrl        *wire
	draining    bool
	unreachable bool // evicted from placement until CheckHealth re-admits it
}

// NewRouter returns an empty router; AddNode it onto the fleet.
func NewRouter() *Router { return &Router{} }

// AddNode dials a node's control connection and registers it under the name
// the node reports for itself.
func (r *Router) AddNode(addr string) error {
	ctrl, err := dialWire(addr)
	if err != nil {
		return err
	}
	st, err := statsOver(ctrl)
	if err != nil {
		ctrl.Close()
		return fmt.Errorf("fleet: add node %s: %w", addr, err)
	}
	n := &routerNode{name: st.Name, addr: addr, ctrl: ctrl, draining: st.Draining}
	r.mu.Lock()
	r.nodes = append(r.nodes, n)
	r.mu.Unlock()
	return nil
}

// Close tears down the control connections. Streams hold their own
// connections and must be closed by their producers first.
func (r *Router) Close() {
	r.mu.Lock()
	nodes := r.nodes
	r.nodes = nil
	r.mu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		if n.ctrl != nil {
			n.ctrl.Close()
			n.ctrl = nil
		}
		n.mu.Unlock()
	}
}

func dialWire(addr string) (*wire, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial %s: %w", addr, err)
	}
	return newWire(c), nil
}

// statsOver polls one stats report over an already-locked or exclusively
// owned wire.
func statsOver(w *wire) (NodeStats, error) {
	rv, payload, err := w.roundTrip(vStats, nil)
	if err != nil {
		return NodeStats{}, err
	}
	if rv != vStatsData {
		return NodeStats{}, fmt.Errorf("fleet: stats reply verb %s", rv)
	}
	return decodeStats(payload)
}

// pingOver sends one liveness probe over an exclusively owned wire.
func pingOver(w *wire) error {
	rv, _, err := w.roundTrip(vPing, nil)
	if err != nil {
		return err
	}
	if rv != vOK {
		return fmt.Errorf("fleet: ping reply verb %s", rv)
	}
	return nil
}

// stats polls one node's control connection. A transport failure evicts the
// node — the router stops trusting it for placement until a CheckHealth
// probe re-admits it — so one dead node can never wedge every caller that
// polls loads.
func (n *routerNode) stats() (NodeStats, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.unreachable || n.ctrl == nil {
		return NodeStats{}, fmt.Errorf("fleet: node %q: evicted (unreachable)", n.name)
	}
	st, err := statsOver(n.ctrl)
	if err != nil {
		n.ctrl.Close()
		n.ctrl = nil
		n.unreachable = true
		return NodeStats{}, fmt.Errorf("fleet: node %q stats: %w", n.name, err)
	}
	n.draining = st.Draining
	return st, nil
}

// markUnreachable evicts the node from placement (its control connection is
// dropped so the next health probe redials from scratch).
func (n *routerNode) markUnreachable() {
	n.mu.Lock()
	if n.ctrl != nil {
		n.ctrl.Close()
		n.ctrl = nil
	}
	n.unreachable = true
	n.mu.Unlock()
}

// Stats polls every node's self-report, in registration order.
func (r *Router) Stats() ([]NodeStats, error) {
	r.mu.Lock()
	nodes := append([]*routerNode(nil), r.nodes...)
	r.mu.Unlock()
	out := make([]NodeStats, 0, len(nodes))
	for _, n := range nodes {
		st, err := n.stats()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// RouterMetrics is the router's own placement accounting.
type RouterMetrics struct {
	// Placements counts successfully opened streams; PrimaryHits counts the
	// ones that landed on their first-choice candidate (the placement
	// hit-rate numerator). Migrations counts graceful mid-stream node moves.
	Placements  int
	PrimaryHits int
	Migrations  int
	// Recoveries counts checkpoint-replay recoveries after unclean node
	// loss; ReplayedFrames totals the frames replayed during them.
	Recoveries     int
	ReplayedFrames int
}

// Metrics snapshots the router's placement accounting.
func (r *Router) Metrics() RouterMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RouterMetrics{
		Placements:  r.placements,
		PrimaryHits: r.primaryHits,
		Migrations:  r.migrations,
		Recoveries:  r.recoveries, ReplayedFrames: r.replayedFrames,
	}
}

// Drain gracefully drains the named node: the node stops admitting streams,
// and every live stream routed there migrates — snapshot over the wire,
// restore on a peer — at its next Push (lazily, so each stream's producer
// goroutine keeps sole ownership of its session).
func (r *Router) Drain(name string) error {
	r.mu.Lock()
	var target *routerNode
	for _, n := range r.nodes {
		if n.name == name {
			target = n
			break
		}
	}
	r.mu.Unlock()
	if target == nil {
		return fmt.Errorf("fleet: drain: unknown node %q", name)
	}
	target.mu.Lock()
	defer target.mu.Unlock()
	if target.ctrl == nil {
		return fmt.Errorf("fleet: drain %q: control connection closed", name)
	}
	rv, _, err := target.ctrl.roundTrip(vDrain, nil)
	if err != nil {
		return fmt.Errorf("fleet: drain %q: %w", name, err)
	}
	if rv != vOK {
		return fmt.Errorf("fleet: drain %q: reply verb %s", name, rv)
	}
	target.draining = true
	return nil
}

// reachableLoads polls every non-evicted node and returns the reachable
// ones' placement views plus the node handles in matching order. A node
// whose poll fails is evicted from placement (re-admitted by CheckHealth)
// rather than failing the caller — a dead node must not take the whole
// fleet's placement machinery down with it. It errors only when no node is
// reachable at all.
func (r *Router) reachableLoads() ([]*routerNode, []NodeLoad, error) {
	r.mu.Lock()
	nodes := append([]*routerNode(nil), r.nodes...)
	r.mu.Unlock()
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("fleet: router has no nodes")
	}
	live := make([]*routerNode, 0, len(nodes))
	loads := make([]NodeLoad, 0, len(nodes))
	for _, n := range nodes {
		st, err := n.stats()
		if err != nil {
			continue // evicted by stats; a health probe can bring it back
		}
		live = append(live, n)
		loads = append(loads, NodeLoad{OpenSessions: st.OpenSessions, ResidentBytes: st.Pool.ResidentBytes, Draining: st.Draining})
	}
	if len(live) == 0 {
		return nil, nil, fmt.Errorf("fleet: no reachable nodes (all evicted)")
	}
	return live, loads, nil
}

// Open places a new stream with default options: no checkpoint-replay
// recovery, so an unclean node death surfaces as ErrNodeLost.
func (r *Router) Open(name string, cfg slam.Config, intr camera.Intrinsics) (*Stream, error) {
	return r.OpenWith(name, cfg, intr, StreamOptions{})
}

// OpenWith places a new stream on the first node, in placement order, that
// admits it (see place). A non-zero opts.CheckpointEvery arms
// checkpoint-replay recovery (see StreamOptions).
func (r *Router) OpenWith(name string, cfg slam.Config, intr camera.Intrinsics, opts StreamOptions) (*Stream, error) {
	payload := encodeOpen(nil, name,
		slam.AppendConfig(nil, &cfg), slam.AppendIntrinsics(nil, &intr))
	node, w, rank, err := r.place(func(addr string) (*wire, error) {
		return openOn(addr, payload)
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: open %q: %w", name, err)
	}
	r.mu.Lock()
	r.placements++
	if rank == 0 {
		r.primaryHits++
	}
	r.mu.Unlock()
	return &Stream{
		r: r, name: name, w: w, node: node,
		opts: opts, openPayload: payload,
	}, nil
}

// place is the one candidate walk: it polls the reachable nodes' loads,
// orders them least loaded first (Candidates) and hands each in turn to
// attach, which dials the node and binds a session on it. The first success
// wins, and its rank in the order is returned with it. A placement bounce
// moves on to the next candidate; so does node loss — the node died between
// the load poll and the dial — after evicting it; anything else (a remote
// application error, a restore that came back at the wrong frame) would fail
// the same way on every node, so it stops the walk. When no node takes the
// stream the error wraps ErrNoPeer and the last refusal.
func (r *Router) place(attach func(addr string) (*wire, error)) (*routerNode, *wire, int, error) {
	nodes, loads, err := r.reachableLoads()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrNoPeer, err)
	}
	lastErr := errors.New("every reachable node is draining")
	for rank, idx := range Candidates(loads) {
		conn, err := attach(nodes[idx].addr)
		switch {
		case err == nil:
			return nodes[idx], conn, rank, nil
		case isPlacementBounce(err):
		case isNodeLoss(err) && !errors.Is(err, errContinuity):
			nodes[idx].markUnreachable()
		default:
			return nil, nil, 0, fmt.Errorf("on %q: %w", nodes[idx].name, err)
		}
		lastErr = err
	}
	return nil, nil, 0, fmt.Errorf("%w: %w", ErrNoPeer, lastErr)
}

// bindOn dials a fresh stream connection and binds a session to it with an
// open or a restore request, whose payload build appends to the message in
// the connection's write buffer. It returns the wire and the OK reply's
// payload (which aliases the wire's read buffer).
func bindOn(addr string, v verb, build func(msg []byte) []byte) (*wire, []byte, error) {
	w, err := dialWire(addr)
	if err != nil {
		return nil, nil, err
	}
	rv, reply, err := w.exchange(build(w.begin(v)))
	if err == nil && rv != vOK {
		err = fmt.Errorf("fleet: %s reply verb %s", v, rv)
	}
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	return w, reply, nil
}

// openOn opens a fresh session on the node at addr.
func openOn(addr string, openPayload []byte) (*wire, error) {
	w, _, err := bindOn(addr, vOpen, func(msg []byte) []byte {
		return append(msg, openPayload...)
	})
	return w, err
}

// isPlacementBounce reports whether an open failure means "try the next
// candidate" rather than a fault.
func isPlacementBounce(err error) bool {
	return errors.Is(err, ErrAdmission) || errors.Is(err, ErrDraining)
}

// Stream is one live camera stream routed across the fleet: the remote
// mirror of slam.Session's producer half. Push returns once the serving node
// has processed the frame (the reply is sent only after the node-side Push
// returns), and Close returns the digest-bearing summary. Like a Session,
// a Stream must be driven from a single goroutine.
type Stream struct {
	r    *Router
	name string

	w    *wire
	node *routerNode

	pushed     int // frames acknowledged by a serving node
	migrations int

	frameBuf []byte // per-push encode scratch, reused across frames

	// Checkpoint-replay recovery state (see recover.go). Inert when
	// opts.CheckpointEvery == 0.
	opts             StreamOptions
	openPayload      []byte      // retained for fresh-open recovery before the first checkpoint
	checkpoint       []byte      // last AGSSNAP taken over the wire; nil before the first
	checkpointFrames int         // frames the checkpoint has processed
	held             []heldFrame // the frames the checkpoint names without a body, adopted from replay
	replay           [][]byte    // encoded frames acked since the checkpoint: replay[i] is position checkpointFrames+i
	have, missing    []int       // snapshot request and reply scratch (positions)
	heldNext         []heldFrame // setCheckpoint's scratch: the held set under construction
	recoveries       int
	replayed         int
	lost             error // sticky error once a failure detached the stream (node loss or a failed migration)
}

// Name returns the stream's label.
func (s *Stream) Name() string { return s.name }

// Node returns the name of the node currently serving the stream.
func (s *Stream) Node() string { return s.node.name }

// Migrations returns how many times the stream has moved nodes gracefully.
func (s *Stream) Migrations() int { return s.migrations }

// Recoveries returns how many times the stream recovered from unclean node
// loss; Replayed totals the frames re-pushed during those recoveries.
func (s *Stream) Recoveries() int { return s.recoveries }

// Replayed returns the total frames replayed across the stream's recoveries.
func (s *Stream) Replayed() int { return s.replayed }

// Push sends the next frame in stream order. If the serving node has been
// marked draining since the last push, the stream first migrates — snapshot,
// restore on a peer, verified frame count — and then pushes there. With
// recovery armed (StreamOptions.CheckpointEvery > 0), an unclean node death
// is survived transparently: the stream re-places itself, restores its last
// checkpoint, replays the frames pushed since — this one included — and the
// final digest is bit-identical to an undisturbed run. A migration that fails
// otherwise (no peer admits the stream, say) detaches the stream: this Push,
// every later one and Close report its failure.
//
//ags:hotpath
func (s *Stream) Push(f *frame.Frame) error {
	if s.w == nil {
		return s.closedErr("push")
	}
	if s.node.isDraining() {
		if err := s.migrate(); err != nil {
			if err = s.migrateFailed(err); err != nil {
				return err
			}
		}
	}
	s.frameBuf = slam.AppendFrame(s.frameBuf[:0], f)
	if s.opts.CheckpointEvery > 0 {
		s.bufferFrame(s.frameBuf)
	}
	rv, _, err := s.w.roundTrip(vPush, s.frameBuf)
	if err != nil {
		// recover replays every buffered frame — the failed one included —
		// so a nil return means this frame is acked on the new node.
		if err = s.pushFailed(err); err != nil {
			return err
		}
	} else if rv != vOK {
		return fmt.Errorf("fleet: stream %q: push reply verb %s", s.name, rv)
	}
	s.pushed++
	if s.opts.CheckpointEvery > 0 {
		return s.maybeCheckpoint()
	}
	return nil
}

// Close ends the stream and returns the node-side session's summary; its
// Digest is bit-identical to a sequential slam.Run over the same frames.
// If the serving node is lost at close time (or was lost earlier with
// recovery disabled), the error wraps ErrNodeLost; if a migration failed
// earlier, it wraps that failure. Either way the summary is partial: only
// Frames — the acknowledged-frame count — is meaningful.
func (s *Stream) Close() (ResultSummary, error) {
	if s.w == nil {
		if s.lost != nil {
			return ResultSummary{Frames: s.pushed}, fmt.Errorf("fleet: stream %q: close: %w", s.name, s.lost)
		}
		return ResultSummary{}, fmt.Errorf("fleet: stream %q: already closed", s.name)
	}
	node := s.node.name
	rv, payload, err := s.w.roundTrip(vClose, nil)
	if err != nil && isNodeLoss(err) && s.recoveryEnabled() {
		if rerr := s.recover(err); rerr != nil {
			err = rerr
		} else {
			node = s.node.name
			rv, payload, err = s.w.roundTrip(vClose, nil)
		}
	}
	if err != nil {
		s.teardown()
		if isNodeLoss(err) {
			s.lost = s.asNodeLost(err, node)
			return ResultSummary{Frames: s.pushed}, fmt.Errorf("fleet: stream %q: close: %w", s.name, s.lost)
		}
		return ResultSummary{}, fmt.Errorf("fleet: stream %q: close: %w", s.name, err)
	}
	if rv != vResult {
		s.teardown()
		return ResultSummary{}, fmt.Errorf("fleet: stream %q: close reply verb %s", s.name, rv)
	}
	sum, derr := decodeResult(payload)
	s.teardown()
	if derr != nil {
		return ResultSummary{}, fmt.Errorf("fleet: stream %q: %w", s.name, derr)
	}
	return sum, nil
}

func (n *routerNode) isDraining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

// NodeHealth is one node's outcome from Router.CheckHealth.
type NodeHealth struct {
	Name string
	Addr string
	// Reachable: the node answered this probe's PING (over the existing
	// control connection, or over a fresh redial).
	Reachable bool
	// Draining mirrors the node's drain state as last reported.
	Draining bool
	// Evicted: the node is out of the placement ring after this probe.
	Evicted bool
	// Readmitted: this probe brought a previously evicted node back.
	Readmitted bool
}

// CheckHealth probes every node with the PING verb, in registration order:
// an unresponsive node is evicted from the placement ring (streams it was
// serving recover via checkpoint-replay at their next push), and an evicted
// node that answers a fresh redial is re-admitted. Probing is caller-driven
// — the router runs no background goroutines and reads no clock — so health
// policy (when and how often to probe) stays with the caller and tests stay
// deterministic.
func (r *Router) CheckHealth() []NodeHealth {
	r.mu.Lock()
	nodes := append([]*routerNode(nil), r.nodes...)
	r.mu.Unlock()
	out := make([]NodeHealth, len(nodes))
	for i, n := range nodes {
		out[i] = n.probe()
	}
	return out
}

// probe pings one node, redialing its control connection if it is missing
// (evicted earlier, or the live one just failed the ping).
func (n *routerNode) probe() NodeHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := NodeHealth{Name: n.name, Addr: n.addr}
	wasEvicted := n.unreachable
	if n.ctrl != nil {
		if err := pingOver(n.ctrl); err == nil {
			n.unreachable = false
			h.Reachable, h.Draining = true, n.draining
			return h
		}
		n.ctrl.Close()
		n.ctrl = nil
	}
	ctrl, err := dialWire(n.addr)
	if err == nil {
		// Ping end to end, then refresh identity and drain state: a node
		// that came back on the same address may be a different process.
		st, serr := statsOver(ctrl)
		if perr := pingOver(ctrl); perr != nil {
			serr = perr
		}
		if serr == nil {
			n.ctrl = ctrl
			n.unreachable = false
			n.name, n.draining = st.Name, st.Draining
			h.Name = st.Name
			h.Reachable, h.Draining = true, st.Draining
			h.Readmitted = wasEvicted
			return h
		}
		ctrl.Close()
	}
	n.unreachable = true
	h.Evicted = true
	return h
}
