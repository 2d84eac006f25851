// Package chaos injects deterministic transport faults into a fleet
// endpoint. It wraps a node's net.Listener so every accepted connection is
// counted and controlled: on an explicit write-indexed schedule the injector
// severs one connection mid-frame, or kills the whole endpoint — listener
// plus every live connection — also mid-frame. These are the unclean-death
// cases the fleet's checkpoint-replay recovery exists for, and the harness
// that drives the fleet recovery tests.
//
// # Determinism
//
// Faults fire on a write-count schedule, never a probability: the Nth write
// through the endpoint dies, so a request/response conversation fails at
// exactly the same message on every run. The only random source is an
// explicit splitmix64 state seeded from Config.Seed (the same PRNG
// discipline as the mapper's keyframe sampling) and it decides exactly one
// thing: how many bytes of the doomed frame make it out before the cut —
// so recovery is exercised against genuinely truncated frames (the wire
// reader's ErrTruncated/ErrChecksum paths), at a reproducible offset.
// Wrapping a node's listener counts only that node's writes (its replies),
// so "the Nth write" is "the Nth handled message" for a single-connection
// conversation.
package chaos

import (
	"fmt"
	"math/bits"
	"net"
	"sync"
)

// Config seeds an Injector and optionally schedules faults up front.
type Config struct {
	// Seed drives the splitmix64 stream that picks mid-frame truncation
	// offsets. Two injectors with the same seed and schedule cut the same
	// frames at the same byte.
	Seed uint64
	// KillAtWrite, when > 0, kills the endpoint (listener + every
	// connection) during its Nth write, 1-based, leaving that frame
	// truncated. ArmKill schedules the same thing relative to "now".
	KillAtWrite int
	// SeverAtWrite, when > 0, severs just the connection performing the
	// endpoint's Nth write, 1-based, mid-frame. The listener and other
	// connections live on. ArmSever is the relative form.
	SeverAtWrite int
}

// Stats counts what the injector has done.
type Stats struct {
	Writes      int // writes observed across all connections
	Kills       int // endpoint kills triggered
	Severs      int // single-connection severs triggered
	Truncations int // faulted frames that got a non-empty prefix out
}

// Injector owns one endpoint's fault schedule. Safe for concurrent use by
// the wrapped connections.
type Injector struct {
	mu      sync.Mutex
	rng     prng
	writes  int
	killAt  int
	severAt int
	killed  bool
	ln      net.Listener
	conns   map[*faultConn]struct{}
	stats   Stats
}

// New builds an injector with cfg's seed and schedule.
func New(cfg Config) *Injector {
	return &Injector{
		rng:     prng{state: cfg.Seed},
		killAt:  cfg.KillAtWrite,
		severAt: cfg.SeverAtWrite,
		conns:   make(map[*faultConn]struct{}),
	}
}

// Listen wraps a listener so every accepted connection routes its writes
// through the injector's schedule. Pass the result to Node.StartOn.
func (in *Injector) Listen(inner net.Listener) net.Listener {
	ln := &faultListener{in: in, Listener: inner}
	in.mu.Lock()
	in.ln = inner
	in.mu.Unlock()
	return ln
}

// ArmKill schedules an endpoint kill at the `after`th write from now
// (1 = the very next write).
func (in *Injector) ArmKill(after int) {
	in.mu.Lock()
	in.killAt = in.writes + after
	in.mu.Unlock()
}

// ArmSever schedules a single-connection sever at the `after`th write from
// now.
func (in *Injector) ArmSever(after int) {
	in.mu.Lock()
	in.severAt = in.writes + after
	in.mu.Unlock()
}

// Kill closes the listener and every live connection immediately — the
// unclean node death. Idempotent.
func (in *Injector) Kill() {
	in.mu.Lock()
	if in.killed {
		in.mu.Unlock()
		return
	}
	in.killed = true
	in.stats.Kills++
	ln := in.ln
	conns := make([]*faultConn, 0, len(in.conns))
	//ags:allow(maprange, order-independent: every collected conn is closed; no output depends on the iteration order)
	for c := range in.conns {
		conns = append(conns, c)
	}
	in.conns = make(map[*faultConn]struct{})
	in.mu.Unlock()
	// Close outside the lock: conn Close re-enters unregister.
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Conn.Close()
	}
}

// Killed reports whether the endpoint has been killed.
func (in *Injector) Killed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.killed
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

func (in *Injector) register(c *faultConn) {
	in.mu.Lock()
	if in.killed {
		in.mu.Unlock()
		c.Conn.Close()
		return
	}
	in.conns[c] = struct{}{}
	in.mu.Unlock()
}

func (in *Injector) unregister(c *faultConn) {
	in.mu.Lock()
	delete(in.conns, c)
	in.mu.Unlock()
}

// write actions.
const (
	actPass = iota
	actSever
	actKill
)

// onWrite advances the schedule for one write of n bytes and returns the
// action plus how many bytes to let through first (the seeded mid-frame
// truncation point).
func (in *Injector) onWrite(n int) (action, cut int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writes++
	in.stats.Writes++
	switch {
	case in.killAt > 0 && in.writes >= in.killAt && !in.killed:
		action = actKill
		in.killAt = 0
	case in.severAt > 0 && in.writes >= in.severAt:
		action = actSever
		in.severAt = 0
		in.stats.Severs++
	default:
		return actPass, n
	}
	if n > 1 {
		cut = 1 + in.rng.intn(n-1) // strictly inside the frame: 1..n-1
	}
	if cut > 0 {
		in.stats.Truncations++
	}
	return action, cut
}

// faultListener wraps Accept to route connections through the injector.
type faultListener struct {
	in *Injector
	net.Listener
}

func (ln *faultListener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := &faultConn{in: ln.in, Conn: c}
	ln.in.register(fc)
	return fc, nil
}

// faultConn counts writes and executes the injector's schedule on them.
type faultConn struct {
	in *Injector
	net.Conn
}

func (c *faultConn) Write(b []byte) (int, error) {
	action, cut := c.in.onWrite(len(b))
	switch action {
	case actSever:
		n, _ := c.Conn.Write(b[:cut])
		c.Conn.Close()
		c.in.unregister(c)
		return n, fmt.Errorf("chaos: connection severed mid-frame after %d/%d bytes", n, len(b))
	case actKill:
		n, _ := c.Conn.Write(b[:cut])
		c.in.Kill()
		return n, fmt.Errorf("chaos: endpoint killed mid-frame after %d/%d bytes", n, len(b))
	default:
		return c.Conn.Write(b)
	}
}

func (c *faultConn) Close() error {
	c.in.unregister(c)
	return c.Conn.Close()
}

// prng is the repo's splitmix64: one uint64 of explicit state, identical to
// the mapper's keyframe-sampling discipline. No global rand, no clock.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n) via Lemire's multiply-shift.
func (p *prng) intn(n int) int {
	hi, _ := bits.Mul64(p.next(), uint64(n))
	return int(hi)
}
