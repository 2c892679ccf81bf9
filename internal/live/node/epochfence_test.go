package node_test

import (
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// TestReleaseKeepsTheEpochItWasBuiltIn: the root of a barrier episode —
// a flagged one, which takes a checkpoint — fans the release out on its
// dispatcher. A rollback that lands between two of those sends must not
// get the release through the fence of a child already reset to its
// checkpoint ("release for barrier 0 episode 2 without a local
// arrival"), so every copy carries the epoch the episode was built in,
// not the one current when it is sent. Nodes 0 and 1 are real; node 2 is
// driven frame by frame. The supervisor's epoch bump is played by the
// root's transport right after the first release frame is encoded: it
// starts the bump on its own goroutine (the root's own bump waits for
// the dispatcher that is sending), waits until node 1 is in the new
// epoch, and lets the root go on to its frame to node 2.
func TestReleaseKeepsTheEpochItWasBuiltIn(t *testing.T) {
	const built, bumped = 1, 2
	trs := transport.NewInprocNetwork(3)
	nodes := make([]*node.Node, 2)
	var bump sync.Once
	gate := &flushGate{Transport: trs[0], kind: wire.KBarRelease, before: func() {
		bump.Do(func() {
			peerBumped := make(chan struct{})
			go func() {
				nodes[1].SetEpoch(bumped)
				close(peerBumped)
				nodes[0].SetEpoch(bumped)
			}()
			<-peerBumped
		})
	}}
	for i, tr := range []transport.Transport{gate, trs[1]} {
		cfg := onePage(0, core.LI)
		cfg.Recover = node.RecoverConfig{
			Store: ckpt.NewMemStore(), Every: 1, Epoch: built,
			Consensus: consensus.NewStable(), Seed: int64(i + 1),
		}
		nodes[i] = node.New(tr, cfg)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	var workers sync.WaitGroup
	defer func() {
		// Whoever is still inside the barrier (the fenced child, the root's
		// worker confirming a checkpoint nobody else took) unwinds here.
		for _, nd := range nodes {
			nd.InterruptWorker(&node.RollbackError{Victim: 2})
		}
		workers.Wait()
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			nd.Wait()
		}
	}()
	for _, nd := range nodes {
		workers.Add(1)
		go func(nd *node.Node) {
			defer workers.Done()
			unwound(func() { nd.Barrier(0) })
		}(nd)
	}

	// Node 2's share: its arrival, then read what the root sends it.
	raw := trs[2]
	arrive := &wire.Msg{Kind: wire.KBarArrive, From: 2, Token: 1, Barrier: 0, Episode: 1,
		VT: make([]int32, 3), Epoch: built}
	if err := raw.Send(0, wire.Encode(arrive)); err != nil {
		t.Fatal(err)
	}
	release := make(chan *wire.Msg, 1)
	go func() {
		for {
			f, err := raw.Recv()
			if err != nil {
				return
			}
			// Keep draining afterwards: the leader goes on replicating to
			// this node for as long as the cluster is up.
			if m, err := wire.Decode(f.Payload); err == nil && m.Kind == wire.KBarRelease {
				select {
				case release <- m:
				default:
				}
			}
		}
	}()
	select {
	case m := <-release:
		if m.Episode != 1 {
			t.Fatalf("release for episode %d, want 1", m.Episode)
		}
		if m.Epoch != built {
			t.Errorf("release sent after the rollback carries epoch %d, want the epoch it was built in (%d): the child's fence lets it through",
				m.Epoch, built)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the root never released episode 1")
	}
}

// TestSetEpochWaitsForTheDispatcher: a request being handled when the
// supervisor bumps the epoch must finish in the old epoch, or what it
// sends (a lock forward, a barrier aggregate) carries the new one past
// its receiver's fence and lands on state that receiver has already
// rolled back. The bump must not return while a turn is held: the
// dispatcher's, held inside a control function, or an in-place one,
// held by node 0's lock request whose grant the node's transport keeps
// back. Piece: the dispatch turn around control functions.
func TestSetEpochWaitsForTheDispatcher(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inPlace bool
		inline  int64 // requests handled in place
	}{{"control-function", false, 0}, {"in-place-handler", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			trs := transport.NewInprocNetwork(2)
			busy, release := make(chan struct{}), make(chan struct{})
			gate := &flushGate{Transport: trs[1], kind: wire.KLockGrant, before: func() {
				close(busy)
				<-release
			}}
			cfg := onePage(1, core.LI)
			cfg.Recover = node.RecoverConfig{
				Store: ckpt.NewMemStore(), Every: 1, Epoch: 1,
				Consensus: consensus.NewStable(), Seed: 1,
			}
			nd := node.New(gate, cfg)
			nd.Start()
			defer func() {
				nd.Close()
				for _, tr := range trs {
					tr.Close()
				}
				nd.Wait()
			}()
			if tc.inPlace {
				req := &wire.Msg{Kind: wire.KLockReq, From: 0, Token: 1, Lock: 1, VT: make([]int32, 2), Epoch: 1}
				go trs[0].Send(1, wire.Encode(req))
			} else {
				go nd.Control(func() { close(busy); <-release })
			}
			<-busy
			bumped := make(chan struct{})
			go func() { nd.SetEpoch(2); close(bumped) }()
			select {
			case <-bumped:
				close(release)
				t.Fatal("SetEpoch returned while a turn was still inside a handler")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			<-bumped
			if got := nd.Stats().InlineRequests; got != tc.inline {
				t.Errorf("%d requests handled in place, want %d", got, tc.inline)
			}
		})
	}
}
