package node

import (
	"strings"
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
)

// TestPendingForBelowRoot: a judge that is not the barrier tree's root
// reports a missing arrival only for a peer in its own subtree, through
// its child on the path to that peer, and names itself.
func TestPendingForBelowRoot(t *testing.T) {
	trs := transport.NewInprocNetwork(7)
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	n := New(trs[1], Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: -1,
	})
	// Node 1's children are 3 and 4; it holds its own arrival and 3's.
	n.sy.bar = barAgg{episode: 2, barrier: 0, arrived: map[int32]int64{1: 1, 3: 0}}
	if got := n.pendingFor(4); !strings.Contains(got, "awaits its subtree (2/3 arrivals at node 1)") {
		t.Errorf("pendingFor(4) = %q, want the barrier wait on child 4 reported at node 1", got)
	}
	// Node 5 hangs under node 2: node 1 knows nothing of its arrival.
	for _, w := range []int{0, 2, 5, 3, 1} {
		if got := n.pendingFor(w); got != "no pending synchronization" {
			t.Errorf("pendingFor(%d) = %q, want no pending synchronization", w, got)
		}
	}
}
