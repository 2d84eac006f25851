package fleet

import (
	"fmt"
	"net"
	"sync"

	"ags/internal/slam"
)

// NodeConfig sizes one fleet node: the slam.Server it wraps plus the
// admission budgets routers are told about and bounce off.
type NodeConfig struct {
	// Name is the node's fleet-wide identity.
	Name string
	// Server configures the wrapped slam.Server (its context pool's capacity).
	Server slam.ServerConfig
	// MaxSessions caps concurrently admitted fleet streams (0 = unlimited).
	// Opens beyond the cap are rejected with ErrAdmission and the router
	// falls through to the next placement candidate.
	MaxSessions int
	// MaxResidentBytes rejects new streams while the render-context pool's
	// resident bytes meet or exceed this budget (0 = unlimited).
	MaxResidentBytes int64
}

// Node is the serving side of the fleet: one slam.Server made
// network-facing. Each accepted connection is handled by its own goroutine
// and speaks the strict request/response protocol; a connection is either a
// control channel (stats, drain) or bound to exactly one session by
// open/restore, so every session's frames arrive in push order down a single
// connection and are processed on its handler goroutine — the property that
// keeps fleet results digest-identical to local runs. A node admits streams
// until a drain request; from then on it refuses new ones with ErrDraining
// while the open ones keep running.
type Node struct {
	cfg NodeConfig
	srv *slam.Server

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]*connState
	streams  int  // fleet-admitted live sessions (reserved before Open)
	draining bool // set by a drain request: admit no new streams
	closed   bool

	wg sync.WaitGroup
}

// NewNode builds a node with its own slam.Server. Call Start to listen.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Name == "" {
		cfg.Name = "node"
	}
	return &Node{
		cfg:   cfg,
		srv:   slam.NewServer(cfg.Server),
		conns: make(map[net.Conn]*connState),
	}
}

// Server exposes the wrapped slam.Server (tests and the CLI reach through
// for pool stats; sessions are owned by their remote producers).
func (n *Node) Server() *slam.Server { return n.srv }

// Start listens on addr ("" = loopback with an ephemeral port) and serves
// connections until Close. It returns the bound address for routers to dial.
func (n *Node) Start(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fleet: node %q listen: %w", n.cfg.Name, err)
	}
	return n.StartOn(ln)
}

// StartOn serves connections from an already-built listener until Close —
// the seam the chaos fault injector wraps (chaos.Injector.Listen) so a node
// can be served through a deterministic fault schedule without the node
// knowing. It returns the listener's address for routers to dial.
func (n *Node) StartOn(ln net.Listener) (string, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("fleet: node %q is closed", n.cfg.Name)
	}
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(1)
	go n.Serve()
	return ln.Addr().String(), nil
}

// Serve is the accept loop: one goroutine per connection, each owning its
// wire endpoint exclusively. It returns when the listener closes.
func (n *Node) Serve() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		cs := &connState{w: newWire(c)}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.conns[c] = cs
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(c, cs)
	}
}

// Addr returns the listening address, or "" before Start.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Stats assembles the node's self-report.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	streams, draining := n.streams, n.draining
	n.mu.Unlock()
	return NodeStats{
		Name:             n.cfg.Name,
		OpenSessions:     streams,
		Draining:         draining,
		MaxSessions:      n.cfg.MaxSessions,
		MaxResidentBytes: n.cfg.MaxResidentBytes,
		Pool:             n.srv.PoolStats(),
	}
}

// Close stops the listener, then shuts connections down gracefully instead
// of racing their handlers: an idle connection (handler blocked in recv) is
// closed outright, while a handler mid-dispatch finishes its one in-flight
// request — sending the reply the remote producer is already blocked on —
// and then exits. The wait is bounded because each handler processes at most
// the single request it already started; no new requests begin once the
// closing flag is set. Abandoned sessions lose their partial results.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return nil
	}
	n.closed = true
	ln := n.ln
	states := make([]*connState, 0, len(n.conns))
	//ags:allow(maprange, order-independent: every collected conn is asked to close; no output depends on the iteration order)
	for _, cs := range n.conns {
		states = append(states, cs)
	}
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, cs := range states {
		if cs.beginClose() {
			// Idle: the handler is blocked in recv; closing the conn unblocks
			// it. Busy handlers see the closing flag after their dispatch and
			// close themselves.
			cs.w.Close()
		}
	}
	n.wg.Wait()
	return n.srv.Close()
}

// admit reserves one admission slot, or returns the refusal to reply with:
// its error code and the detail the router's decodeErrReply puts behind the
// code's sentinel (code 0 means admitted). The reservation happens before the
// server Open so concurrent connections cannot oversubscribe the budget
// between check and open.
func (n *Node) admit() (code byte, detail string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.draining {
		return codeDraining, fmt.Sprintf("node %q", n.cfg.Name)
	}
	if n.closed {
		return codeInternal, fmt.Sprintf("node %q is closed", n.cfg.Name)
	}
	if n.cfg.MaxSessions > 0 && n.streams >= n.cfg.MaxSessions {
		return codeAdmission, fmt.Sprintf("node %q at %d/%d sessions", n.cfg.Name, n.streams, n.cfg.MaxSessions)
	}
	if n.cfg.MaxResidentBytes > 0 {
		if rb := n.srv.PoolStats().ResidentBytes; rb >= n.cfg.MaxResidentBytes {
			return codeAdmission, fmt.Sprintf("node %q pool resident %d B >= budget %d B", n.cfg.Name, rb, n.cfg.MaxResidentBytes)
		}
	}
	n.streams++
	return 0, ""
}

func (n *Node) releaseAdmission() {
	n.mu.Lock()
	n.streams--
	n.mu.Unlock()
}

// dropSession closes the connection's session, unbinds it and returns the
// admission slot it held.
func (n *Node) dropSession(cs *connState) (*slam.Result, error) {
	res, err := cs.sess.Close()
	cs.sess = nil
	n.releaseAdmission()
	return res, err
}

// connState is the per-connection session binding plus the tiny handshake
// Node.Close uses to stop the handler without racing an in-flight dispatch.
type connState struct {
	w        *wire
	sess     *slam.Session // holds an admission slot while non-nil
	replyBuf []byte        // reply payload scratch, reused across messages
	have     []int         // a snapshot request's positions, reused across requests

	mu      sync.Mutex
	busy    bool // a dispatch is running on the handler goroutine
	closing bool // Node.Close asked the handler to exit
}

// begin claims the connection for one dispatch; false means the node is
// closing and the handler must exit without starting the request.
func (cs *connState) begin() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closing {
		return false
	}
	cs.busy = true
	return true
}

// end releases the dispatch claim and reports whether Node.Close asked the
// connection to shut down while the dispatch ran.
func (cs *connState) end() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.busy = false
	return cs.closing
}

// beginClose marks the connection closing and reports whether the caller
// must close the conn itself: true for an idle handler (blocked in recv,
// needs the close to unblock), false for a busy one (it finishes its
// in-flight request, replies, then exits on the closing flag).
func (cs *connState) beginClose() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.closing = true
	return !cs.busy
}

// serveConn runs one connection's request/response loop until the peer
// disconnects, a send fails, or the node closes. A torn-down connection with
// a live session closes the session (its result is lost with its producer)
// and returns the admission slot.
func (n *Node) serveConn(c net.Conn, cs *connState) {
	defer n.wg.Done()
	defer func() {
		if cs.sess != nil {
			n.dropSession(cs)
		}
		cs.w.Close()
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
	}()
	for {
		v, payload, err := cs.w.recv()
		if err != nil {
			return // clean EOF or damage; either way the conversation is over
		}
		if !cs.begin() {
			return // node closing; drop the request unhandled
		}
		ok := n.dispatch(cs, v, payload)
		if closing := cs.end(); !ok || closing {
			return
		}
	}
}

// dispatch handles one request and sends its reply; false means the
// connection is unusable (reply send failed).
func (n *Node) dispatch(cs *connState, v verb, payload []byte) bool {
	switch v {
	case vOpen:
		return n.handleOpen(cs, payload)
	case vPush:
		return n.handlePush(cs, payload)
	case vClose:
		return n.handleClose(cs)
	case vSnapshot:
		return n.handleSnapshot(cs, payload)
	case vRestore:
		return n.handleRestore(cs, payload)
	case vDrain:
		n.mu.Lock()
		n.draining = true
		n.mu.Unlock()
		return n.replyOK(cs, 0)
	case vPing:
		// Liveness probe: answers on any connection (control or
		// session-bound) without touching session state, so a router health
		// check never perturbs a live stream.
		return n.replyOK(cs, 0)
	case vStats:
		st := n.Stats()
		cs.replyBuf = encodeStats(cs.replyBuf[:0], &st)
		return cs.w.send(vStatsData, cs.replyBuf) == nil
	default:
		// Response verbs arriving as requests are protocol misuse, not damage.
		return n.replyErr(cs, codeProto, fmt.Sprintf("unexpected request verb %s", v))
	}
}

func (n *Node) replyOK(cs *connState, frames int) bool {
	cs.replyBuf = encodeOK(cs.replyBuf[:0], frames)
	return cs.w.send(vOK, cs.replyBuf) == nil
}

func (n *Node) replyErr(cs *connState, code byte, msg string) bool {
	cs.replyBuf = encodeErrReply(cs.replyBuf[:0], code, msg)
	return cs.w.send(vErrReply, cs.replyBuf) == nil
}

func (n *Node) handleOpen(cs *connState, payload []byte) bool {
	if cs.sess != nil {
		return n.replyErr(cs, codeProto, "connection already bound to a session")
	}
	name, cfgBytes, intrBytes, err := decodeOpen(payload)
	if err != nil {
		return n.replyErr(cs, codeProto, err.Error())
	}
	cfg, err := slam.DecodeConfig(cfgBytes)
	if err != nil {
		return n.replyErr(cs, codeProto, err.Error())
	}
	intr, err := slam.DecodeIntrinsics(intrBytes)
	if err != nil {
		return n.replyErr(cs, codeProto, err.Error())
	}
	if code, detail := n.admit(); code != 0 {
		return n.replyErr(cs, code, detail)
	}
	sess, err := n.srv.Open(name, cfg, intr)
	if err != nil {
		n.releaseAdmission()
		return n.replyErr(cs, codeInternal, err.Error())
	}
	cs.sess = sess
	return n.replyOK(cs, 0)
}

// handleRestore is the migration target's half: rebuild a session from the
// shipped snapshot, decoded straight out of the connection's read buffer, and
// the frames shipped behind it (the ones the snapshot names without a body),
// and report how many frames it has already processed — the index of the next
// frame the producer must push. Whether the frames are the ones the snapshot
// asks for is slam's to say (slam.ErrFrameTable).
func (n *Node) handleRestore(cs *connState, payload []byte) bool {
	if cs.sess != nil {
		return n.replyErr(cs, codeProto, "connection already bound to a session")
	}
	name, snap, held, err := decodeRestore(payload)
	if err != nil {
		return n.replyErr(cs, codeProto, err.Error())
	}
	if code, detail := n.admit(); code != 0 {
		return n.replyErr(cs, code, detail)
	}
	sess, frames, err := n.srv.RestoreSession(name, snap, held)
	if err != nil {
		n.releaseAdmission()
		return n.replyErr(cs, codeInternal, err.Error())
	}
	cs.sess = sess
	return n.replyOK(cs, frames)
}

// handlePush decodes one frame and pushes it into the bound session, which
// processes it on this handler's goroutine. The reply is sent only after Push
// returns, so an OK acknowledges a processed frame and a frame the session
// rejects fails the push that carried it; the remote producer waits for the
// frame exactly as a local one would. Not a hot path by contract: the decoded
// frame is a fresh allocation per push (the session owns it from here on).
func (n *Node) handlePush(cs *connState, payload []byte) bool {
	if cs.sess == nil {
		return n.replyErr(cs, codeProto, "push before open")
	}
	f, err := slam.DecodeFrame(payload)
	if err != nil {
		return n.replyErr(cs, codeProto, err.Error())
	}
	if err := cs.sess.Push(f); err != nil {
		return n.replyErr(cs, codeInternal, err.Error())
	}
	return n.replyOK(cs, 0)
}

func (n *Node) handleClose(cs *connState) bool {
	if cs.sess == nil {
		return n.replyErr(cs, codeProto, "close before open")
	}
	res, err := n.dropSession(cs)
	if err != nil {
		return n.replyErr(cs, codeInternal, err.Error())
	}
	sum := ResultSummary{Digest: res.Digest(), Frames: res.Frames, NumGaussians: res.Cloud.Len()}
	cs.replyBuf = encodeResult(cs.replyBuf[:0], &sum)
	return cs.w.send(vResult, cs.replyBuf) == nil
}

// handleSnapshot serializes the bound session between frames (every pushed
// frame is processed first; see slam.Session.AppendSnapshot) and ships the
// AGSSNAP bytes back, without the bodies of the frames the request says the
// requester holds. The snapshot is encoded straight into the connection's
// write buffer, behind the message header, so it exists once on this side of
// the wire. The session stays open — the router follows up with close
// (discarding the partial result) once the snapshot is safely restored on a
// peer.
func (n *Node) handleSnapshot(cs *connState, payload []byte) bool {
	if cs.sess == nil {
		return n.replyErr(cs, codeProto, "snapshot before open")
	}
	var err error
	if cs.have, err = decodePositions(cs.have[:0], payload); err != nil {
		return n.replyErr(cs, codeProto, err.Error())
	}
	msg, err := cs.sess.AppendSnapshot(cs.w.begin(vSnapData), cs.have)
	if err != nil {
		return n.replyErr(cs, codeInternal, err.Error())
	}
	return cs.w.finish(msg) == nil
}
