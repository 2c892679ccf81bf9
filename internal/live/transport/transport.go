// Package transport moves encoded wire frames between live DSM nodes.
//
// Two implementations share the Transport interface: Inproc connects the
// nodes of one process through channels (the default for tests and race
// runs), and TCP connects them through length-prefixed frames over
// per-peer connections with dial retry, deadlines and exponential
// backoff. The protocol engine is transport-agnostic: it encodes every
// message with the wire codec even in-process, so the codec is exercised
// on every run.
package transport

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Frame is one received payload and its sender.
type Frame struct {
	From    int
	Payload []byte
	// OnSender reports that the handler runs on the goroutine that sent
	// the frame: set by Inproc.Send, never by a TCP reader, and cleared
	// on a frame queued before a handler was registered (the registering
	// goroutine hands it over). A handler may do a sender's frame's work
	// right there; a reader's goroutine has to get back to its socket.
	OnSender bool
}

// Transport connects one node to its peers. Send, Handle and Recv are
// safe for concurrent use; payload ownership transfers on Send.
type Transport interface {
	// Self returns this node's id in [0, N); N the cluster size.
	Self() int
	N() int
	// Send delivers payload to peer `to`. Frames from one sender to one
	// receiver arrive in order; there is no cross-peer ordering.
	Send(to int, payload []byte) error
	// Handle registers h to receive every inbound frame, called on the
	// goroutine the frame arrived on (a TCP connection's reader, an
	// in-process sender) — so h must not wait on anything a sender could
	// be holding. An in-process handler may do protocol work on the
	// sender's goroutine (Frame.OnSender), and a send inside it may run
	// another node's handler on that goroutine in turn: the depth is at
	// most the node count, since a node busy up the stack takes no second
	// frame in place. Frames that arrived before the registration are
	// handed to h first, in arrival order. Register once.
	Handle(h func(Frame))
	// Recv blocks until a frame arrives or the transport closes. It is
	// the default handler's queue: only frames that arrive while no
	// handler is registered reach it.
	Recv() (Frame, error)
	// Close tears the transport down; pending and future Recv calls
	// return ErrClosed once the queued frames are drained.
	Close() error
}

// ErrClosed is returned once a transport is shut down.
var ErrClosed = errors.New("transport: closed")

// inbox is a transport's receive side: a frame goes to the registered
// handler on the goroutine that delivers it, or — until one is
// registered — into a queue that Recv drains and Handle hands over.
type inbox struct {
	h     atomic.Pointer[func(Frame)]
	mu    sync.Mutex // guards queue
	queue []Frame
	ready chan struct{} // one token: the queue may have grown
	done  chan struct{} // the owning transport's close
}

func newInbox(done chan struct{}) *inbox {
	return &inbox{ready: make(chan struct{}, 1), done: done}
}

// deliver hands f to the handler, or queues it while there is none.
func (q *inbox) deliver(f Frame) {
	if h := q.h.Load(); h != nil {
		(*h)(f)
		return
	}
	q.mu.Lock()
	if h := q.h.Load(); h != nil {
		q.mu.Unlock()
		(*h)(f)
		return
	}
	f.OnSender = false
	q.queue = append(q.queue, f)
	q.mu.Unlock()
	q.signal()
}

func (q *inbox) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// handle hands the queued frames to h, batch by batch without holding
// the mutex, and installs h once the queue is empty: a frame delivered
// meanwhile joins the queue behind the ones already there, so h sees
// every sender's frames in order.
func (q *inbox) handle(h func(Frame)) {
	for {
		q.mu.Lock()
		batch := q.queue
		q.queue = nil
		if len(batch) == 0 {
			q.h.Store(&h)
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		for _, f := range batch {
			h(f)
		}
	}
}

// recv pops the oldest queued frame, waiting for one until the transport
// closes; a closed transport still yields what was queued first.
func (q *inbox) recv() (Frame, error) {
	for {
		q.mu.Lock()
		if len(q.queue) > 0 {
			f := q.queue[0]
			q.queue[0] = Frame{}
			q.queue = q.queue[1:]
			more := len(q.queue) > 0
			q.mu.Unlock()
			if more {
				q.signal() // another receiver may be waiting
			}
			return f, nil
		}
		q.mu.Unlock()
		select {
		case <-q.ready:
		case <-q.done:
			q.mu.Lock()
			empty := len(q.queue) == 0
			q.mu.Unlock()
			if empty {
				return Frame{}, ErrClosed
			}
		}
	}
}

// Network owns the transports of a whole cluster and can rebuild one
// node's transport after a crash. Rejoin(i) closes node i's current
// transport (if still open) and returns a fresh incarnation bound to the
// same identity — and, for TCP, the same address with a bumped boot id,
// so receivers reset their per-peer sequence de-duplication instead of
// discarding the new incarnation's frames. The supervisor
// (internal/live) drives recovery through this interface.
type Network interface {
	// Transports returns the current transport of every node.
	Transports() []Transport
	// Rejoin replaces node i's transport with a fresh incarnation.
	Rejoin(i int) (Transport, error)
	// Close tears the whole network down.
	Close() error
}

// PeerResetter is implemented by transports whose per-peer connections
// can be forcibly severed mid-run — the TCP transport closes the
// established outbound connection so the next Send must re-dial and
// retransmit. Fault injection (internal/live/chaos) uses it to exercise
// the reconnect path; connectionless transports simply don't implement
// it.
type PeerResetter interface {
	ResetPeer(to int)
}
