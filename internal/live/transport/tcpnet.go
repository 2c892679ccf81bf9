package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPNet is the Network over TCP transports: it remembers the cluster's
// address list so a crashed node's transport can be rebuilt on the same
// address.
type TCPNet struct {
	addrs []string
	opts  TCPOptions

	mu    sync.Mutex
	nodes []*TCP
}

// NewTCPLoopbackNet builds an n-node loopback TCP network whose nodes
// can be rejoined after a crash.
func NewTCPLoopbackNet(n int, opts TCPOptions) (*TCPNet, error) {
	ts, err := NewTCPLoopback(n, opts)
	if err != nil {
		return nil, err
	}
	nw := &TCPNet{opts: opts, nodes: make([]*TCP, n), addrs: make([]string, n)}
	for i, t := range ts {
		nw.nodes[i] = t.(*TCP)
		nw.addrs[i] = nw.nodes[i].Addr()
	}
	return nw, nil
}

// Transports implements Network.
func (nw *TCPNet) Transports() []Transport {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	ts := make([]Transport, len(nw.nodes))
	for i, t := range nw.nodes {
		ts[i] = t
	}
	return ts
}

// Rejoin implements Network: it closes node i's transport, rebinds its
// listen address (retrying briefly while the old listener's close
// settles), and returns a fresh incarnation.
func (nw *TCPNet) Rejoin(i int) (Transport, error) {
	nw.mu.Lock()
	if i < 0 || i >= len(nw.nodes) {
		nw.mu.Unlock()
		return nil, fmt.Errorf("transport: tcp rejoin of invalid node %d", i)
	}
	nw.nodes[i].Close()
	addr := nw.addrs[i] // addrs is immutable after construction
	nw.mu.Unlock()
	// Rebind with the lock released: the retry loop can sleep for up to a
	// second while the old listener's close settles, and holding mu that
	// long would stall Transports and Close for the whole cluster.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: rebind %s for node %d: %w", addr, i, err)
	}
	t := newTCPNode(i, nw.addrs, ln, nw.opts)
	nw.mu.Lock()
	nw.nodes[i] = t
	nw.mu.Unlock()
	return t, nil
}

// Close implements Network.
func (nw *TCPNet) Close() error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for _, t := range nw.nodes {
		t.Close()
	}
	return nil
}
