package node

import (
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
)

// TestLogSegmentFetchOnPrunedGrant forces the on-demand interval-log
// replication path that ordinary runs rarely touch: a lock grant whose
// piggybacked notices cannot cover the requester's knowledge gap
// because the granter's *learned* log of a third writer has been pruned
// past learnedKnowCap. The requester must detect the gap and fetch the
// missing segment from the writer itself, whose own log is
// authoritative and never pruned within an epoch.
func TestLogSegmentFetchOnPrunedGrant(t *testing.T) {
	// Enough rounds that node 1's learned log of node 0's intervals is
	// pruned well past the cap by the time node 2 first acquires.
	const rounds = learnedKnowCap + 300
	cfg := Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 3, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: -1,
	}
	trs := transport.NewInprocNetwork(3)
	nodes := []*Node{New(trs[0], cfg), New(trs[1], cfg), New(trs[2], cfg)}
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

	// Nodes 0 and 1 ping-pong the lock; every node-0 critical section
	// writes, so each closes an interval node 1 learns from the grant.
	// Node 2 stays out entirely, falling rounds/2 intervals behind.
	a := core.Addr(0)
	var writes uint64
	for i := 0; i < 2*rounds; i++ {
		nd := nodes[i%2]
		nd.Lock(0)
		if i%2 == 0 {
			nd.WriteU64(a, nd.ReadU64(a)+1)
			writes++
		}
		nd.Unlock(0)
	}
	// The loop ends with node 1 as last holder, so node 2's acquire is
	// forwarded by the home (node 0) to node 1, and node 1 builds the
	// grant from its pruned learned log.
	nodes[2].Lock(0)
	got := nodes[2].ReadU64(a)
	nodes[2].Unlock(0)

	if got != writes {
		t.Errorf("node 2 read %d after acquiring, want %d — grant gap not healed", got, writes)
	}
	if f := nodes[2].Stats().LogSegFetches; f == 0 {
		t.Error("pruned grant forced no log-segment fetch — the gap path never ran")
	}
	// The writer served the segment from its own authoritative log;
	// nothing on node 0's side should have counted a fetch.
	if f := nodes[0].Stats().LogSegFetches; f != 0 {
		t.Errorf("writer recorded %d fetches; only requesters fetch", f)
	}
}
