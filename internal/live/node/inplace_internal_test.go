package node

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// These tests pin the in-place path (deliver, handleInPlace; DESIGN.md
// §9.7): an in-process lock request, forward or flush is handled on its
// sender's goroutine while the receiver's dispatcher is idle. Each names
// the piece whose removal makes it fail. The acks, epoch and Backoff
// rows that also cover it are in acks_test.go, epochfence_test.go and
// backoff_internal_test.go.

// startOn builds and starts one node per transport, all with cfg, and
// tears them down with the test.
func startOn(t *testing.T, trs []transport.Transport, cfg Config) []*Node {
	t.Helper()
	nodes := make([]*Node, len(trs))
	for i, tr := range trs {
		nodes[i] = New(tr, cfg)
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			waitClosed(t, nd)
		}
	})
	return nodes
}

// pairCfg is a 2-node layout: one page homed at node 1, four locks (the
// odd ones homed at node 1), failure detection off.
func pairCfg() Config {
	return Config{
		PageSize: 256, NPages: 1, Homes: []int32{1}, NLocks: 4, NBars: 1,
		Protocol: core.LI, HeartbeatTimeout: -1,
	}
}

// rawPeer starts node 1 of a 2-node in-process network and returns it
// with node 0's bare transport: node 0 is played frame by frame, and
// what node 1 sends it waits in that transport's Recv queue.
func rawPeer(t *testing.T) (*Node, transport.Transport) {
	t.Helper()
	trs := transport.NewInprocNetwork(2)
	t.Cleanup(func() { trs[0].Close() })
	return startOn(t, trs[1:], pairCfg())[0], trs[0]
}

// lockReq is node 0's acquire of lock id under token tok.
func lockReq(id int32, tok int64) []byte {
	return wire.Encode(&wire.Msg{Kind: wire.KLockReq, From: 0, Token: tok, Lock: id, VT: []int32{0, 0}})
}

// TestQueuedRequestNotOvertaken: a request that queued behind a busy
// dispatcher is handled before a later request from the same sender,
// even when that one finds the turn free before the dispatcher has come
// back for the queue. The dispatcher is held in a control function while
// node 0's first acquire queues; the function then lets go of the turn,
// and node 0 sends its second. Handled in place, the second would be
// granted first and the first dropped as a stale duplicate. Piece: the
// queued count in handleInPlace.
func TestQueuedRequestNotOvertaken(t *testing.T) {
	nd, raw := rawPeer(t)
	done := make(chan error, 1)
	go func() {
		done <- nd.Control(func() {
			if err := raw.Send(1, lockReq(1, 1)); err != nil {
				t.Error(err)
			}
			nd.turn.Unlock()
			defer nd.turn.Lock()
			if err := raw.Send(1, lockReq(3, 2)); err != nil {
				t.Error(err)
			}
		})
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	grants := make(chan int64, 2)
	go func() {
		for {
			f, err := raw.Recv()
			if err != nil {
				return
			}
			if m, err := wire.Decode(f.Payload); err == nil && m.Kind == wire.KLockGrant {
				select {
				case grants <- m.Token:
				default:
				}
			}
		}
	}()
	var toks []int64
	for len(toks) < 2 {
		select {
		case tok := <-grants:
			toks = append(toks, tok)
		case <-time.After(2 * time.Second):
			t.Fatalf("grants %v, want tokens [1 2]: the first request was overtaken and dropped", toks)
		}
	}
	if toks[0] != 1 || toks[1] != 2 {
		t.Errorf("grants for tokens %v, want [1 2]", toks)
	}
	if n := nd.Stats().InlineRequests; n != 0 {
		t.Errorf("%d requests handled in place, want 0: both had to queue", n)
	}
}

// TestInPlaceChainQueues: a chain of in-place handlers that comes back to
// a node whose turn is held up the stack queues there instead of waiting
// for the turn. A's dispatcher, inside a control function, asks B for
// lock 1, which A owns; B handles the request in place on A's dispatcher
// goroutine and forwards it to A, whose turn that goroutine holds. The
// forward must queue and be granted once the function returns. Piece:
// TryLock (a blocking Lock deadlocks the goroutine on itself).
func TestInPlaceChainQueues(t *testing.T) {
	nodes := startOn(t, transport.NewInprocNetwork(2), pairCfg())
	a, b := nodes[0], nodes[1]
	a.Lock(1) // homed at B: A becomes its owner
	a.Unlock(1)
	inline := b.Stats().InlineRequests
	tok, grant := a.newLaneToken(0)
	done := make(chan error, 1)
	go func() {
		done <- a.Control(func() {
			a.send(1, &wire.Msg{Kind: wire.KLockReq, Token: tok, Lock: 1, VT: make([]int32, 2)})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the forward back to A waited for the turn A's own stack holds")
	}
	select {
	case m := <-grant:
		if m.Kind != wire.KLockGrant {
			t.Fatalf("got %v, want a lock-grant", m.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the queued forward was never granted")
	}
	if n := b.Stats().InlineRequests - inline; n != 1 {
		t.Errorf("B handled %d requests in place, want the lock request", n)
	}
}

// closeOnGrant closes its node and transport the moment the node sends
// a lock grant, then passes the grant on to the closed transport: the
// node dies in the middle of a handler.
type closeOnGrant struct {
	transport.Transport
	nd   *Node
	once sync.Once
}

func (c *closeOnGrant) Send(to int, payload []byte) error {
	if len(payload) > 1 && wire.Kind(payload[1]) == wire.KLockGrant {
		c.once.Do(func() {
			c.nd.Close()
			c.Transport.Close()
		})
	}
	return c.Transport.Send(to, payload)
}

// TestClosedNodeDoesNotUnwindSender: B is closed while A's worker is
// running B's handler in place, so the handler's grant finds B's
// transport closed. The handler must drop the grant, not panic on A's
// goroutine with B's error; A's worker then times out on its own.
// Piece: send, not trySend, in the handlers.
func TestClosedNodeDoesNotUnwindSender(t *testing.T) {
	trs := transport.NewInprocNetwork(2)
	cfg := pairCfg()
	cfg.RPCTimeout, cfg.RetryBase, cfg.RetryMax = 200*time.Millisecond, 20*time.Millisecond, 50*time.Millisecond
	tap := &closeOnGrant{Transport: trs[1]}
	nodes := startOn(t, []transport.Transport{trs[0], tap}, cfg)
	a, b := nodes[0], nodes[1]
	tap.nd = b
	msg := await(t, "A's acquire", goWorker(func() { a.Lock(1) }))
	if !strings.HasPrefix(msg, "node 0: rpc timeout") {
		t.Errorf("A's worker unwound with %q, want its own rpc timeout", msg)
	}
	if n := b.Stats().InlineRequests; n == 0 {
		t.Error("B did not handle the request in place")
	}
}

// TestInlineRequestsCounted: a lock ping-pong between two in-process
// nodes hands its requests over in place and counts them; over TCP every
// request goes through the dispatcher and the counter stays 0.
func TestInlineRequestsCounted(t *testing.T) {
	for _, kind := range []string{"inproc", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			trs := transport.NewInprocNetwork(2)
			if kind == "tcp" {
				var err error
				if trs, err = transport.NewTCPLoopback(2, transport.TCPOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			nodes := startOn(t, trs, pairCfg())
			for i := 0; i < 10; i++ {
				for _, nd := range nodes {
					if msg := await(t, "the acquire", goWorker(func() {
						nd.Lock(0)
						nd.WriteU64(0, uint64(i))
						nd.Unlock(0)
					})); msg != "" {
						t.Fatalf("worker unwound: %s", msg)
					}
				}
			}
			inline := nodes[0].Stats().InlineRequests + nodes[1].Stats().InlineRequests
			if kind == "tcp" && inline != 0 {
				t.Errorf("%d requests handled in place over TCP, want 0", inline)
			}
			if kind == "inproc" && inline == 0 {
				t.Error("no request handled in place in-process")
			}
		})
	}
}
