package transport

import (
	"fmt"
	"sync"
)

// InprocNet is an in-process network: one transport slot per node, with
// Rejoin replacing a slot by a fresh incarnation (the crashed node's old
// inbox is abandoned, like frames lost on a dead host).
type InprocNet struct {
	mu    sync.RWMutex
	slots []*Inproc
}

// NewInprocNet builds a fully connected n-node in-process network.
func NewInprocNet(n int) *InprocNet {
	nw := &InprocNet{slots: make([]*Inproc, n)}
	for i := range nw.slots {
		nw.slots[i] = newInproc(nw, i, n)
	}
	return nw
}

// NewInprocNetwork builds an n-node in-process network and returns one
// transport per node (the historical flat-slice constructor).
func NewInprocNetwork(n int) []Transport { return NewInprocNet(n).Transports() }

// Transports implements Network.
func (nw *InprocNet) Transports() []Transport {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	ts := make([]Transport, len(nw.slots))
	for i, s := range nw.slots {
		ts[i] = s
	}
	return ts
}

// Rejoin implements Network: it closes node i's current transport and
// replaces it with a fresh incarnation. Frames queued at the old one are
// dropped — exactly what a crash does — and concurrent Sends race
// harmlessly: they deliver to whichever incarnation the slot held when
// they looked it up, and a closed incarnation drops silently.
func (nw *InprocNet) Rejoin(i int) (Transport, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if i < 0 || i >= len(nw.slots) {
		return nil, fmt.Errorf("transport: inproc rejoin of invalid node %d", i)
	}
	nw.slots[i].Close()
	fresh := newInproc(nw, i, len(nw.slots))
	nw.slots[i] = fresh
	return fresh, nil
}

// Close implements Network.
func (nw *InprocNet) Close() error {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	for _, s := range nw.slots {
		s.Close()
	}
	return nil
}

func (nw *InprocNet) peer(i int) *Inproc {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.slots[i]
}

// Inproc is one node's in-process transport: the peers' Sends reach it
// through the network's slot table and run its frame handler on the
// sending goroutine.
type Inproc struct {
	net  *InprocNet
	self int
	n    int

	in   *inbox
	done chan struct{}
	once sync.Once
}

func newInproc(nw *InprocNet, self, n int) *Inproc {
	done := make(chan struct{})
	return &Inproc{net: nw, self: self, n: n, in: newInbox(done), done: done}
}

// Self implements Transport.
func (t *Inproc) Self() int { return t.self }

// N implements Transport.
func (t *Inproc) N() int { return t.n }

// Send implements Transport: the destination's handler runs on the
// calling goroutine (Frame.OnSender). A send to a closed or replaced
// peer is dropped silently and reports success — the in-process analogue
// of writing to a dead host's address: the network accepts the frame and
// nobody receives it. Only the sender's own closed transport is an
// error; the protocol layer recovers lost frames by retransmission and
// converts genuinely dead peers into structured failures.
func (t *Inproc) Send(to int, payload []byte) error {
	if to < 0 || to >= t.n || to == t.self {
		return fmt.Errorf("transport: inproc send to invalid peer %d", to)
	}
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	p := t.net.peer(to)
	select {
	case <-p.done:
		return nil // dead destination: the frame is lost, not an error
	default:
	}
	p.in.deliver(Frame{From: t.self, Payload: payload, OnSender: true})
	return nil
}

// Handle implements Transport.
func (t *Inproc) Handle(h func(Frame)) { t.in.handle(h) }

// Recv implements Transport.
func (t *Inproc) Recv() (Frame, error) { return t.in.recv() }

// Close implements Transport.
func (t *Inproc) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}
