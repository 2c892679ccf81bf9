package node_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// These tests pin the lazy release's reader-side invariant — nobody
// reads a copy older than the notices it has seen — at the one place it
// can break: a lock grant overtaking the flush of the interval it
// advertises. A transport wrapper holds or drops the writer's
// KWriteNotices frames on demand, so the overtaking is forced, not
// hoped for. With the gating removed (homes answering at once, home
// pages staying readable) each of the value checks below reads the old
// word.

// flushGate wraps a transport and, on demand, holds back or drops the
// frames of one kind its node sends — KWriteNotices unless a test sets
// another (setKind).
type flushGate struct {
	transport.Transport
	kind wire.Kind // guarded by mu: consensus frames cross every gate
	// before, if set, runs on the sending goroutine ahead of every frame
	// of the gated kind (set it before the nodes start).
	before func()
	// rewrite, if set, replaces each frame of the gated kind by the frames
	// it returns — none drops it, two duplicate it, and a frame kept back
	// and returned with a later one is reordered. Called under mu.
	rewrite func(payload []byte) [][]byte
	mu      sync.Mutex
	holding bool
	drop    int // drop this many such frames before anything else
	held    []heldFlush
}

type heldFlush struct {
	to      int
	payload []byte
}

func (g *flushGate) Send(to int, payload []byte) error {
	g.mu.Lock()
	gated := len(payload) > 1 && wire.Kind(payload[1]) == g.kind
	g.mu.Unlock()
	if gated {
		if g.before != nil {
			g.before()
		}
		g.mu.Lock()
		switch {
		case g.rewrite != nil:
			out := g.rewrite(payload)
			g.mu.Unlock()
			for _, p := range out {
				if err := g.Transport.Send(to, p); err != nil {
					return err
				}
			}
			return nil
		case g.drop > 0:
			g.drop--
			g.mu.Unlock()
			return nil
		case g.holding:
			g.held = append(g.held, heldFlush{to, append([]byte(nil), payload...)})
			g.mu.Unlock()
			return nil
		}
		g.mu.Unlock()
	}
	return g.Transport.Send(to, payload)
}

// setKind gates frames of kind k from now on.
func (g *flushGate) setKind(k wire.Kind) {
	g.mu.Lock()
	g.kind = k
	g.mu.Unlock()
}

func (g *flushGate) hold() {
	g.mu.Lock()
	g.holding = true
	g.mu.Unlock()
}

// release lets the held frames go, in order, and stops holding.
func (g *flushGate) release() {
	g.mu.Lock()
	held := g.held
	g.held, g.holding = nil, false
	g.mu.Unlock()
	for _, h := range held {
		g.Transport.Send(h.to, h.payload)
	}
}

// startGated is startNodes over flushGate transports; cfgs holds one
// config per node.
func startGated(t *testing.T, cfgs ...node.Config) ([]*node.Node, []*flushGate, func()) {
	t.Helper()
	trs := transport.NewInprocNetwork(len(cfgs))
	nodes := make([]*node.Node, len(cfgs))
	gates := make([]*flushGate, len(cfgs))
	for i := range nodes {
		gates[i] = &flushGate{Transport: trs[i], kind: wire.KWriteNotices}
		nodes[i] = node.New(gates[i], cfgs[i])
		nodes[i].Start()
	}
	return nodes, gates, func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			nd.Wait()
		}
	}
}

func sameCfg(cfg node.Config, n int) []node.Config {
	out := make([]node.Config, n)
	for i := range out {
		out[i] = cfg
	}
	return out
}

// waitFor polls cond (an engine counter reaching a value) until it holds
// or done is closed; after 10 s of neither it fails the test and gives
// up. Safe off the test goroutine.
func waitFor(t *testing.T, what string, done <-chan struct{}, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		select {
		case <-done:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// bothProtocols runs body under LI and LH.
func bothProtocols(t *testing.T, body func(t *testing.T, prot core.Protocol)) {
	for _, prot := range []core.Protocol{core.LI, core.LH} {
		t.Run(prot.String(), func(t *testing.T) { body(t, prot) })
	}
}

// writeThenHandOver is the scenario cases (i) and (iii) share: b caches
// the page, a writes 7 to its first word under lock 0 and releases, b
// takes the lock and reads the word back (closing read, if given, once
// it has).
func writeThenHandOver(t *testing.T, a, b *node.Node, read chan struct{}) (got uint64) {
	t.Helper()
	cached, written := make(chan struct{}), make(chan struct{})
	runWorkers(t,
		func() {
			<-cached
			a.Lock(0)
			a.WriteU64(0, 7)
			a.Unlock(0) // returns whether or not the flush got anywhere
			close(written)
		},
		func() {
			if v := b.ReadU64(0); v != 0 { // a cached copy, so LH pulls
				t.Errorf("first read = %d, want 0", v)
			}
			close(cached)
			<-written
			b.Lock(0)
			got = b.ReadU64(0)
			b.Unlock(0)
			if read != nil {
				close(read)
			}
		},
	)
	return got
}

// TestGrantOvertakesFlushToThirdHome, case (i): A writes a page homed at
// C under a lock and hands the lock to B while the flush to C is still
// held. B's fault (LI) or pull (LH) must park at C and return A's value.
func TestGrantOvertakesFlushToThirdHome(t *testing.T) {
	bothProtocols(t, func(t *testing.T, prot core.Protocol) {
		nodes, gates, stop := startGated(t, sameCfg(onePage(2, prot), 3)...)
		defer stop()
		a, b, c := nodes[0], nodes[1], nodes[2]
		gates[0].hold()
		read := make(chan struct{})
		go func() {
			waitFor(t, "the reader's request to park at the home", read, func() bool { return c.Stats().ParkedReqs > 0 })
			gates[0].release()
		}()
		if got := writeThenHandOver(t, a, b, read); got != 7 {
			t.Errorf("reader saw %d under the lock, want the writer's 7", got)
		}
		if p := c.Stats().ParkedReqs; p == 0 {
			t.Error("the home parked no request")
		}
	})
}

// TestGrantOvertakesFlushToAcquirer, case (ii): the acquirer is itself
// the page's home. Its worker must wait, at its first access, until its
// own dispatcher has applied the writer's flush.
func TestGrantOvertakesFlushToAcquirer(t *testing.T) {
	bothProtocols(t, func(t *testing.T, prot core.Protocol) {
		nodes, gates, stop := startGated(t, sameCfg(onePage(1, prot), 2)...)
		defer stop()
		a, b := nodes[0], nodes[1]
		gates[0].hold()
		read := make(chan struct{})
		var got uint64
		go func() {
			// The writer's own first acquire counts as a grant too.
			waitFor(t, "the grant to leave the writer", read, func() bool { return a.Stats().LockHandoffs > 1 })
			select {
			case <-read:
			case <-time.After(20 * time.Millisecond): // the reader is parked; give it the flush
			}
			gates[0].release()
		}()
		runWorkers(t,
			func() {
				a.Lock(0)
				a.WriteU64(0, 7)
				a.Unlock(0)
			},
			func() {
				waitFor(t, "the writer's release", nil, func() bool { return a.Stats().Intervals > 0 })
				b.Lock(0)
				got = b.ReadU64(0)
				b.Unlock(0)
				close(read)
			},
		)
		if got != 7 {
			t.Errorf("home worker saw %d under the lock, want the writer's 7", got)
		}
		if b.Stats().HomeWaitNs == 0 {
			t.Error("home worker never waited for the flush")
		}
	})
}

// TestDroppedFlushIsRetransmitted, case (iii): the first copy of the
// flush is lost. The writer's retry timer delivers it, and the request
// parked at the home is answered by that — not by the requester's own
// retransmission, which is 200 ms away.
func TestDroppedFlushIsRetransmitted(t *testing.T) {
	bothProtocols(t, func(t *testing.T, prot core.Protocol) {
		cfgs := sameCfg(onePage(2, prot), 3)
		cfgs[0].RetryBase = 10 * time.Millisecond
		nodes, gates, stop := startGated(t, cfgs...)
		defer stop()
		a, b, c := nodes[0], nodes[1], nodes[2]
		gates[0].drop = 1
		if got := writeThenHandOver(t, a, b, nil); got != 7 {
			t.Errorf("reader saw %d under the lock, want the writer's 7", got)
		}
		if r := a.Stats().FlushRetransmits; r == 0 {
			t.Error("the writer never retransmitted its flush")
		}
		if p := c.Stats().ParkedReqs; p == 0 {
			t.Error("the home parked no request")
		}
		if r := b.Stats().RPCRetries; r != 0 {
			t.Errorf("the reader retransmitted %d times; the flush should have released it", r)
		}
	})
}

// TestFlushTimeoutSurfaces: a flush nobody acknowledges has no blocked
// requester to time out; the retry timer must turn it into the same
// bounded, named rpc-timeout failure, raised in the worker.
func TestFlushTimeoutSurfaces(t *testing.T) {
	cfg := onePage(1, core.LI)
	cfg.RPCTimeout, cfg.RetryBase = 150*time.Millisecond, 10*time.Millisecond
	nodes, gates, stop := startGated(t, sameCfg(cfg, 2)...)
	defer stop()
	a := nodes[0]
	gates[0].drop = 1 << 30
	msg := unwound(func() {
		a.Lock(0)
		a.WriteU64(0, 7)
		a.Unlock(0) // returns: the release does not wait
		a.FinalFlush()
	})
	if !strings.Contains(msg, "rpc timeout: write-notices to node 1") {
		t.Errorf("undeliverable flush unwound the worker with %q, want an rpc timeout naming the flush and its home", msg)
	}
	if r := a.Stats().FlushRetransmits; r == 0 {
		t.Error("the flush was never retransmitted before timing out")
	}
}

// TestOwnFlushHeldDuringRefetch, case (iv): A writes a word of a page and
// its flush is held; another writer's notice for a different word of the
// same page (false sharing) makes A fetch the page again. The copy that
// comes back must contain A's own write.
func TestOwnFlushHeldDuringRefetch(t *testing.T) {
	bothProtocols(t, func(t *testing.T, prot core.Protocol) {
		nodes, gates, stop := startGated(t, sameCfg(onePage(2, prot), 3)...)
		defer stop()
		a, b, c := nodes[0], nodes[1], nodes[2]
		gates[0].hold()
		aWrote, bWrote, read := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var own, other uint64
		go func() {
			waitFor(t, "A's re-fetch to park at the home", read, func() bool { return c.Stats().ParkedReqs > 0 })
			gates[0].release()
		}()
		runWorkers(t,
			func() {
				a.Lock(0)
				a.WriteU64(0, 7)
				a.Unlock(0) // flush held
				close(aWrote)
				<-bWrote
				a.Lock(1) // B's notice for the page: invalidated (LI) or pulled (LH)
				own, other = a.ReadU64(0), a.ReadU64(8)
				a.Unlock(1)
				close(read)
			},
			func() {
				<-aWrote
				b.Lock(1)
				b.WriteU64(8, 9)
				b.Unlock(1)
				b.FinalFlush() // B's flush is at the home before A learns of it
				close(bWrote)
			},
		)
		if own != 7 || other != 9 {
			t.Errorf("after the re-fetch A saw (%d, %d), want its own 7 and B's 9", own, other)
		}
		if p := c.Stats().ParkedReqs; p == 0 {
			t.Error("the home parked no request")
		}
	})
}

// TestLaneAcquireDuringSiblingPull pins the other half of the invariant,
// on a node shared by lanes: a page stops being readable in the same
// critical section that advances the node's vector time. Lane W's
// acquire learns of A's write and starts an LH pull, which is held. Lane
// Z then acquires a lock A released after that write; its request
// advertises the node's vector time, so the grant names no page — and Z
// must still not read the copy W has not refreshed yet. (This was the
// serving front end's read-your-writes violation.) The page is homed at
// a third node C, so A's grant cannot carry the diff and W must pull.
func TestLaneAcquireDuringSiblingPull(t *testing.T) {
	nodes, gates, stop := startGated(t, sameCfg(onePage(2, core.LH), 3)...)
	defer stop()
	a, b := nodes[0], nodes[1]
	gates[1].setKind(wire.KDiffReq)
	gates[1].hold()
	if v := b.ReadU64(0); v != 0 { // B caches the page before its lanes start
		t.Fatalf("first read = %d, want 0", v)
	}
	w, z := b.LaneWorker(1), b.LaneWorker(2)
	var sawW, sawZ uint64
	runWorkers(t,
		func() {
			a.Lock(0)
			a.Lock(1)
			a.WriteU64(0, 7)
			a.Unlock(1)
			a.Unlock(0)
		},
		func() {
			waitFor(t, "the writer's release", nil, func() bool { return a.Stats().Intervals > 0 })
			w.Lock(0) // blocks in the held pull
			sawW = w.ReadU64(0)
			w.Unlock(0)
		},
		func() {
			waitFor(t, "the sibling's pull to start", nil, func() bool { return b.Stats().DiffPulls > 0 })
			z.Lock(1)
			sawZ = z.ReadU64(0)
			z.Unlock(1)
			gates[1].release()
		},
	)
	if sawZ != 7 || sawW != 7 {
		t.Errorf("lanes saw (%d, %d) under locks released after the write, want 7 and 7", sawW, sawZ)
	}
}

// TestParkedWaitsUnwind, case (v): a worker parked on home coverage and
// a worker whose request is parked at a home are both released by an
// interrupt (and the rollback that follows drops the parked request) and
// by Close.
func TestParkedWaitsUnwind(t *testing.T) {
	// parkHomeWorker leaves B (home of the page) blocked in its read
	// behind A's held flush and returns the channel its unwinding lands on.
	parkHomeWorker := func(t *testing.T) (b *node.Node, out chan string, stop func()) {
		nodes, gates, stop := startGated(t, sameCfg(onePage(1, core.LI), 2)...)
		a, b := nodes[0], nodes[1]
		gates[0].hold()
		a.Lock(0)
		a.WriteU64(0, 7)
		a.Unlock(0)
		out = make(chan string, 1)
		go func() {
			out <- unwound(func() {
				b.Lock(0)
				b.ReadU64(0)
			})
		}()
		waitFor(t, "the home worker's acquire", nil, func() bool { return b.Stats().LockAcquires > 0 })
		time.Sleep(time.Millisecond) // let it reach the read and park
		return b, out, stop
	}
	// parkRemoteRequest leaves B's fault parked at C behind A's held flush.
	parkRemoteRequest := func(t *testing.T) (nodes []*node.Node, gate *flushGate, out chan string, stop func()) {
		nodes, gates, stop := startGated(t, sameCfg(onePage(2, core.LI), 3)...)
		a, b, c := nodes[0], nodes[1], nodes[2]
		// The leader's bootstrap append reaches each node once, from its
		// own goroutine; let it land before the rollback row counts the
		// frames that reach the reader.
		waitFor(t, "the bootstrap append", nil, func() bool { return b.Stats().MsgsRecv > 0 })
		gates[0].hold()
		a.Lock(0)
		a.WriteU64(0, 7)
		a.Unlock(0)
		out = make(chan string, 1)
		go func() {
			out <- unwound(func() {
				b.Lock(0)
				b.ReadU64(0)
			})
		}()
		waitFor(t, "the reader's request to park at the home", nil, func() bool { return c.Stats().ParkedReqs > 0 })
		return nodes, gates[0], out, stop
	}
	expect := func(t *testing.T, out chan string, want string) {
		t.Helper()
		select {
		case msg := <-out:
			if !strings.Contains(msg, want) {
				t.Errorf("worker unwound with %q, want %q", msg, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked worker was not released")
		}
	}

	t.Run("home-worker/interrupt", func(t *testing.T) {
		b, out, stop := parkHomeWorker(t)
		defer stop()
		b.InterruptWorker(&node.RollbackError{Victim: 0})
		expect(t, out, "rolled back")
	})
	t.Run("home-worker/close", func(t *testing.T) {
		b, out, stop := parkHomeWorker(t)
		defer stop()
		b.Close()
		expect(t, out, "shut down")
	})
	t.Run("remote-request/rollback", func(t *testing.T) {
		nodes, gate, out, stop := parkRemoteRequest(t)
		defer stop()
		a, b, c := nodes[0], nodes[1], nodes[2]
		b.InterruptWorker(&node.RollbackError{Victim: 0})
		expect(t, out, "rolled back")
		// The rollback resets the home; the parked request must go with it,
		// so the flush landing afterwards answers nobody.
		c.ResetToCheckpoint(nil)
		recv := b.Stats().MsgsRecv
		gate.release()
		a.FinalFlush() // returns once the home has applied and acknowledged
		time.Sleep(5 * time.Millisecond)
		if got := b.Stats().MsgsRecv; got != recv {
			t.Errorf("the reader received %d frames after the home was reset; its parked request survived", got-recv)
		}
	})
	t.Run("remote-request/close", func(t *testing.T) {
		nodes, _, out, stop := parkRemoteRequest(t)
		defer stop()
		nodes[1].Close()
		expect(t, out, "shut down")
	})
}
