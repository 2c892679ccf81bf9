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

// These tests pin how flush acks travel: a home owes the ack of a flush
// its dispatcher applied and pays it on the next frame it sends the
// writer, or on a standalone ack once its queue runs dry; an owed ack
// never crosses a recovery epoch; and frames that reach a transport
// before the node registers its handler are handed over, not stranded.
// Retransmissions and consensus heartbeats are off throughout (they
// would carry owed acks too).

// ackTap wraps a node's transport: it records every frame the node
// sends and drops the first drop frames of kind dropKind.
type ackTap struct {
	transport.Transport
	mu       sync.Mutex
	sent     []*wire.Msg
	dropKind wire.Kind
	drop     int
}

func (t *ackTap) Send(to int, payload []byte) error {
	m, err := wire.Decode(payload)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.sent = append(t.sent, m)
	if m.Kind == t.dropKind && t.drop > 0 {
		t.drop--
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	return t.Transport.Send(to, payload)
}

// frames returns the recorded frames of kind k.
func (t *ackTap) frames(k wire.Kind) []*wire.Msg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*wire.Msg
	for _, m := range t.sent {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// startTapped starts nn nodes with cfg over tapped in-process
// transports and stops them when the test ends.
func startTapped(t *testing.T, cfg Config, nn int) ([]*Node, []*ackTap) {
	t.Helper()
	trs := transport.NewInprocNetwork(nn)
	nodes := make([]*Node, nn)
	taps := make([]*ackTap, nn)
	for i := range nodes {
		taps[i] = &ackTap{Transport: trs[i]}
		nodes[i] = New(taps[i], cfg)
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
	return nodes, taps
}

// startAckPair starts writer a (node 0, home of lock 0) and home b (node
// 1, home of page 0 and lock 1) over tapped in-process transports.
func startAckPair(t *testing.T, tune func(*Config)) (a, b *Node, taps []*ackTap) {
	t.Helper()
	cfg := Config{
		PageSize: 256, NPages: 1, Homes: []int32{1},
		NLocks: 2, NBars: 1, Protocol: core.LI,
		// No retransmission, and no consensus append past the bootstrap
		// one, whose ack startAckPair waits out (the next is 90 s away):
		// either would carry owed acks too.
		HeartbeatTimeout: time.Hour,
		RetryBase:        time.Hour, RetryMax: time.Hour,
	}
	if tune != nil {
		tune(&cfg)
	}
	var nodes []*Node
	nodes, taps = startTapped(t, cfg, 2)
	waitUntil(t, "b's ack of the bootstrap append", func() bool { return nodes[0].Stats().MsgsRecv == 1 })
	return nodes[0], nodes[1], taps
}

// flightTokens lists the tokens of nd's unacknowledged flights to home.
func flightTokens(nd *Node, home int) []int64 {
	nd.pmu.Lock()
	defer nd.pmu.Unlock()
	var out []int64
	for _, f := range nd.flights[home] {
		out = append(out, f.token)
	}
	return out
}

// blockDispatcher parks nd's dispatcher until its queue holds want
// requests; it returns once the dispatcher is parked.
func blockDispatcher(t *testing.T, nd *Node, want int) {
	t.Helper()
	parked := make(chan struct{})
	go nd.Control(func() {
		close(parked)
		for deadline := time.Now().Add(10 * time.Second); len(nd.inq) < want && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
	})
	<-parked
}

// TestOwedAckStaysInItsEpoch, piece (a): an ack owed from before a
// rollback must not ride a frame of the new epoch — there a fresh
// incarnation's tokens start again at 1, and the stale token can name a
// live flight. The home owes epoch 0's ack for the very token of the
// writer's current, unacknowledged epoch-1 flight; neither the next
// frame to the writer nor the home's standalone acks may carry it.
func TestOwedAckStaysInItsEpoch(t *testing.T) {
	// Page 1 is homed at a, so a answers a request for it.
	a, b, taps := startAckPair(t, func(c *Config) { c.NPages, c.Homes = 2, []int32{1, 0} })
	a.SetEpoch(1)
	b.SetEpoch(1)
	taps[0].mu.Lock()
	taps[0].dropKind, taps[0].drop = wire.KWriteNotices, 1
	taps[0].mu.Unlock()
	a.Lock(0)
	a.WriteU64(0, 7)
	a.Unlock(0) // its flush is lost on the way
	toks := flightTokens(a, 1)
	if len(toks) != 1 {
		t.Fatalf("writer has flights %v, want one", toks)
	}
	b.oweAck(0, toks[0], 0)
	b.sendOwedAcks()
	// The carrier: a fetch of the page a homes, which a answers.
	b.send(0, &wire.Msg{Kind: wire.KPageReq, Token: 1 << 40, Page: 1})
	waitUntil(t, "the carrier's answer", func() bool { return len(taps[0].frames(wire.KPageReply)) == 1 })
	if got := flightTokens(a, 1); len(got) != 1 {
		t.Errorf("an epoch-0 ack retired the epoch-1 flight %d", toks[0])
	}
	taps[1].mu.Lock()
	defer taps[1].mu.Unlock()
	for _, m := range taps[1].sent {
		if len(m.Acks) > 0 {
			t.Errorf("%v carried stale acks %v", m.Kind, m.Acks)
		}
	}
}

// TestLoneFlushAckedAtOnce, piece (b): a flush with nothing queued behind
// it is acknowledged by a standalone ack as soon as the home's queue
// runs dry — with no later traffic to ride and no retransmission (the
// retry timer is an hour away) to prompt it — whether the home's
// dispatcher handled it or the writer's goroutine did, in place.
func TestLoneFlushAckedAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inPlace bool
		inline  int64 // requests handled in place
	}{{"queued", false, 0}, {"in-place", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, taps := startAckPair(t, nil)
			turns := b.gen.Load()
			a.Lock(0)
			a.WriteU64(0, 7) // faults: a page request to the home's dispatcher
			waitUntil(t, "the home's turn to end", func() bool { return b.gen.Load() > turns })
			if !tc.inPlace {
				blockDispatcher(t, b, 1)
			}
			msg := await(t, "the final flush", goWorker(func() {
				a.Unlock(0)
				a.FinalFlush()
			}))
			if msg != "" {
				t.Fatalf("writer unwound: %s", msg)
			}
			acks := taps[1].frames(wire.KAck)
			if len(acks) != 1 || acks[0].Token != 0 || len(acks[0].Acks) != 1 {
				t.Errorf("home sent acks %+v, want one standalone ack of one flush", acks)
			}
			if r := a.Stats().FlushRetransmits; r != 0 {
				t.Errorf("%d flush retransmits", r)
			}
			if got := b.Stats().InlineRequests; got != tc.inline {
				t.Errorf("home handled %d requests in place, want %d", got, tc.inline)
			}
		})
	}
}

// TestQueuedLockReqCarriesAck, piece (c): the writer releases (a flush to
// the home) and then asks the home for a lock; with both queued at the
// home, the grant carries the flush's ack and no standalone ack is sent.
// The ack is retired before the grant reaches the worker.
func TestQueuedLockReqCarriesAck(t *testing.T) {
	a, b, taps := startAckPair(t, nil)
	a.Lock(0)
	a.WriteU64(0, 7)
	blockDispatcher(t, b, 2)
	a.Unlock(0)
	tok := flightTokens(a, 1)
	a.Lock(1) // homed at b, never owned: b grants it
	if left := flightTokens(a, 1); len(left) != 0 {
		t.Errorf("flights %v still unacknowledged when the grant arrived", left)
	}
	grants := taps[1].frames(wire.KLockGrant)
	if len(grants) != 1 || len(tok) != 1 || len(grants[0].Acks) != 1 || grants[0].Acks[0] != tok[0] {
		t.Errorf("grants %+v, want one carrying the ack of flush %v", grants, tok)
	}
	if acks := taps[1].frames(wire.KAck); len(acks) != 0 {
		t.Errorf("home sent %d standalone acks, want 0", len(acks))
	}
	if c := b.Stats().AcksCarried; c != 1 {
		t.Errorf("home counted %d carried acks, want 1", c)
	}
	a.Unlock(1)
}

// TestDroppedCarrierRetransmits, piece (d): the grant carrying the ack is
// lost. The re-served grant comes from the reply cache and carries
// nothing, so the writer's flight is only retired through the flush
// retransmission — which the home, holding every diff already, must
// acknowledge again.
func TestDroppedCarrierRetransmits(t *testing.T) {
	a, b, taps := startAckPair(t, func(c *Config) {
		c.RetryBase, c.RetryMax, c.RPCTimeout = 5*time.Millisecond, 20*time.Millisecond, 5*time.Second
	})
	taps[1].mu.Lock()
	taps[1].dropKind, taps[1].drop = wire.KLockGrant, 1
	taps[1].mu.Unlock()
	msg := await(t, "the run", goWorker(func() {
		a.Lock(0)
		a.WriteU64(0, 7)
		blockDispatcher(t, b, 2)
		a.Unlock(0)
		a.Lock(1)
		a.Unlock(1)
		a.FinalFlush()
	}))
	if msg != "" {
		t.Fatalf("writer unwound: %s", msg)
	}
	if r := a.Stats().FlushRetransmits; r == 0 {
		t.Error("the flight was retired without a flush retransmission")
	}
	if len(taps[1].frames(wire.KAck)) == 0 {
		t.Error("the retransmitted flush was never acknowledged")
	}
	buf := make([]byte, 8)
	b.CopyHomePage(0, buf)
	if buf[0] != 7 {
		t.Errorf("home holds %d, want the writer's 7", buf[0])
	}
}

// TestFramesBeforeHandlerDelivered, piece (e): a frame that reaches a
// node's transport before Start registers the handler (a peer's
// retransmission landing on a rejoined node) is handed over once it
// registers: the lock request below is granted.
func TestFramesBeforeHandlerDelivered(t *testing.T) {
	for _, kind := range []string{"inproc", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			trs := transport.NewInprocNetwork(2)
			if kind == "tcp" {
				var err error
				if trs, err = transport.NewTCPLoopback(2, transport.TCPOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				for _, tr := range trs {
					tr.Close()
				}
			}()
			nd := New(trs[1], Config{
				PageSize: 256, NPages: 1, Homes: []int32{1}, NLocks: 2, NBars: 1,
				Protocol: core.LI, HeartbeatTimeout: -1,
			})
			req := &wire.Msg{Kind: wire.KLockReq, From: 0, Token: 1, Lock: 1, VT: []int32{0, 0}}
			if err := trs[0].Send(1, wire.Encode(req)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) // over TCP: let it reach the reader
			nd.Start()
			defer func() { nd.Close(); nd.Wait() }()
			got := make(chan string, 1)
			go func() {
				f, err := trs[0].Recv()
				if err != nil {
					got <- err.Error()
					return
				}
				m, err := wire.Decode(f.Payload)
				if err != nil {
					got <- err.Error()
					return
				}
				got <- m.Kind.String()
			}()
			select {
			case k := <-got:
				if !strings.Contains(k, "lock-grant") {
					t.Errorf("reply %q, want a lock-grant", k)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the request that arrived before Start was never handled")
			}
		})
	}
}
