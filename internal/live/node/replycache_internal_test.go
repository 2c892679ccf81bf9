package node

import (
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// TestReplyCacheBounded hammers the distributed lock plane with far more
// acquires than the reply cache holds — alternating owners so every
// acquire exercises the home's forward/inline-grant paths — then with
// retransmission storms of recent and ancient tokens against both the
// home and the owner, and checks the per-peer dedup state stays bounded
// by replyCacheCap throughout: the cache must be an LRU window, not a
// leak, on every node that grants.
func TestReplyCacheBounded(t *testing.T) {
	const rounds = 400 // alternating acquirers: 200 tokens per node, far beyond replyCacheCap
	cfg := Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: -1,
	}
	trs := transport.NewInprocNetwork(2)
	nodes := []*Node{New(trs[0], cfg), New(trs[1], cfg)}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			waitClosed(t, nd)
		}
	}()

	// Lock 0 homes at node 0. Alternating acquirers means node 1's
	// requests are inline-accepted by the home-owner and node 0's own
	// requests are forwarded to node 1 — both grant paths cache replies.
	for i := 0; i < rounds; i++ {
		nodes[i%2].Lock(0)
		nodes[i%2].Unlock(0)
	}

	cacheState := func(at, peer int) (lastTok int64, replies, order int) {
		nd := nodes[at]
		nd.mu.Lock()
		c := nd.sy.clients[peer].lane(0)
		lastTok, replies, order = c.lastTok, len(c.replies), len(c.order)
		nd.mu.Unlock()
		return
	}

	last1, replies, order := cacheState(0, 1)
	if last1 < rounds/2 {
		t.Fatalf("home's lastTok for node 1 = %d after %d acquires", last1, rounds/2)
	}
	if replies > replyCacheCap || order > replyCacheCap {
		t.Fatalf("home reply cache grew past the bound: %d replies / %d order entries (cap %d)",
			replies, order, replyCacheCap)
	}
	if replies != order {
		t.Fatalf("replies (%d) and eviction order (%d) disagree", replies, order)
	}
	last0, replies0, order0 := cacheState(1, 0)
	if last0 < rounds/2 {
		t.Fatalf("owner's lastTok for node 0 = %d after %d forwarded acquires", last0, rounds/2)
	}
	if replies0 > replyCacheCap || order0 > replyCacheCap {
		t.Fatalf("owner reply cache grew past the bound: %d replies / %d order entries (cap %d)",
			replies0, order0, replyCacheCap)
	}

	// Sustained retransmission storms. Recent node-1 tokens re-asked at
	// the home must be answered from its grant cache; re-delivered node-0
	// requests must re-drive the cached forward to the owner, whose own
	// dedup re-serves the cached grant; an ancient, long-evicted token is
	// deduplicated but unanswerable. None of it may grow any cache.
	dup0 := nodes[0].Stats().DupRequests
	dup1 := nodes[1].Stats().DupRequests
	for storm := 0; storm < 3; storm++ {
		for tok := last1 - 5; tok <= last1; tok++ {
			if err := nodes[1].send(0, &wire.Msg{Kind: wire.KLockReq, Token: tok, Lock: 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for tok := last0 - 5; tok <= last0; tok++ {
		if err := nodes[0].send(0, &wire.Msg{Kind: wire.KLockReq, Token: tok, Lock: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[1].send(0, &wire.Msg{Kind: wire.KLockReq, Token: 1, Lock: 0}); err != nil {
		t.Fatal(err)
	}
	// Node 0 dedups 3x6 node-1 retransmissions, 6 of its own re-delivered
	// requests, and the ancient token; node 1 dedups at least the
	// re-forward of node 0's newest request.
	wantDup0 := dup0 + 3*6 + 6 + 1
	wantDup1 := dup1 + 1
	deadline := time.Now().Add(2 * time.Second)
	for nodes[0].Stats().DupRequests < wantDup0 || nodes[1].Stats().DupRequests < wantDup1 {
		if time.Now().After(deadline) {
			t.Fatalf("DupRequests = %d/%d, want %d/%d — retransmits not deduplicated",
				nodes[0].Stats().DupRequests, nodes[1].Stats().DupRequests, wantDup0, wantDup1)
		}
		time.Sleep(time.Millisecond)
	}

	if _, replies, order := cacheState(0, 1); replies > replyCacheCap || order > replyCacheCap {
		t.Fatalf("retransmission storm grew the home cache: %d replies / %d order entries (cap %d)",
			replies, order, replyCacheCap)
	}
	if _, replies, order := cacheState(1, 0); replies > replyCacheCap || order > replyCacheCap {
		t.Fatalf("retransmission storm grew the owner cache: %d replies / %d order entries (cap %d)",
			replies, order, replyCacheCap)
	}

	// The cluster must still be live after the storm, whoever acquires.
	done := make(chan struct{})
	go func() {
		nodes[1].Lock(0)
		nodes[1].Unlock(0)
		nodes[0].Lock(0)
		nodes[0].Unlock(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lock RPC hung after retransmission storm")
	}
}
