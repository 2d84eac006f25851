package main

import (
	"net"
	"sync/atomic"
)

// countingListener counts every byte that crosses the connections it
// accepts, as the node sees them: in is what the node read (pushed frames,
// requests), out is what it wrote (acks, snapshots, results). Passed to
// fleet.Node.StartOn, so checkpoint traffic is counted with the frames.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.out.Add(int64(n))
	return n, err
}
