package node

import (
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
)

// TestLaneConcurrentAcquires pins the token-lane fix: a node's lock-req
// dedup window is per (origin, lane), so several goroutines of one node
// may have sync RPCs in flight at once as long as each uses its own
// LaneWorker. Before lanes, the per-origin window was a single monotonic
// token — two interleaved acquires from one node could deliver the
// higher token first, and the lower one (plus all its retransmissions)
// was dropped as a duplicate forever, hanging the acquirer. Each lane
// sticks to its own lock (mirroring the serve dispatcher's shard
// pinning); what's concurrent is distinct locks per node, which is
// exactly the interleaving that used to break the window.
func TestLaneConcurrentAcquires(t *testing.T) {
	const (
		lanes  = 4
		rounds = 100
	)
	cfg := Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: lanes, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: -1,
		RPCTimeout:       10 * time.Second, // fail fast if dedup regresses
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

	// Every lane of both nodes contends on its lock with the matching
	// lane of the other node, so each home keeps granting and forwarding
	// requests whose tokens interleave across the origin's lanes.
	errc := make(chan any, 2*lanes)
	var wg sync.WaitGroup
	for _, nd := range nodes {
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(nd *Node, l int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						errc <- r
					}
				}()
				w := nd.LaneWorker(l + 1)
				for i := 0; i < rounds; i++ {
					w.Lock(l)
					w.Unlock(l)
				}
			}(nd, l)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("laned acquires hung — per-lane dedup windows broken")
	}
	close(errc)
	for r := range errc {
		t.Fatalf("laned acquire failed: %v", r)
	}

	// The token's lane field must not collapse into one window: node 0
	// homes locks 0 and 2, so it must have tracked separate per-lane
	// clients for node 1's lanes 1 and 3 (lock l is driven by lane l+1).
	nodes[0].mu.Lock()
	nlanes := len(nodes[0].sy.clients[1].lanes)
	nodes[0].mu.Unlock()
	if nlanes < 2 {
		t.Fatalf("home tracked %d lanes for node 1, want >= 2", nlanes)
	}
}
