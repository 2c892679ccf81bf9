package node

import (
	"sync/atomic"
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// TestConsensusLaneDropCounted pins the outbound-lane contract: a full
// per-peer consensus lane drops the frame — the protocol is
// self-retrying — but never silently. Every drop lands in the
// consensus_lane_drops counter so a soak can distinguish "healthy
// retransmission noise" from "a peer's lane is wedged". The node is
// built but never started, so no drain goroutine empties the lane and
// the 64-slot buffer fills deterministically.
func TestConsensusLaneDropCounted(t *testing.T) {
	cfg := Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: -1,
		Recover:          RecoverConfig{Consensus: consensus.NewStable()},
	}
	trs := transport.NewInprocNetwork(3)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	nd := New(trs[0], cfg)

	m := &wire.Msg{Kind: wire.KAppend, Term: 1}
	for i := 0; i < 64; i++ {
		nd.consensusSend(1, m)
	}
	if got := atomic.LoadInt64(&nd.stats.ConsensusLaneDrops); got != 0 {
		t.Fatalf("lane drops after exactly filling the buffer = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		nd.consensusSend(1, m)
	}
	if got := atomic.LoadInt64(&nd.stats.ConsensusLaneDrops); got != 3 {
		t.Fatalf("lane drops after overflowing = %d, want 3", got)
	}

	// Self sends and out-of-range peers are discarded without counting:
	// they are addressing errors, not congestion.
	nd.consensusSend(0, m)
	nd.consensusSend(-1, m)
	nd.consensusSend(99, m)
	if got := atomic.LoadInt64(&nd.stats.ConsensusLaneDrops); got != 3 {
		t.Fatalf("lane drops after non-lane sends = %d, want 3", got)
	}
}

// TestManagerBlobCachesBounded storms the manager's join-blob cache
// with far more concurrent rejoins than blobCacheCap and checks the LRU
// discipline: the map never exceeds the cap, the least-recently-touched
// entry is the one evicted, an explicit clear drops an entry without
// counting as an eviction, and every forced eviction lands in
// mgr_cache_evictions.
func TestManagerBlobCachesBounded(t *testing.T) {
	nd := &Node{nn: 64}
	g := newManager(nd)

	// 3x the cap, round-robin touches.
	for w := 0; w < 3*blobCacheCap; w++ {
		g.setJoinBlob(w, []byte{byte(w)})
		if len(g.joinBlob) > blobCacheCap {
			t.Fatalf("join cache grew to %d entries (cap %d)", len(g.joinBlob), blobCacheCap)
		}
	}
	if got := atomic.LoadInt64(&nd.stats.MgrCacheEvictions); got != 2*blobCacheCap {
		t.Fatalf("join evictions = %d, want %d", got, 2*blobCacheCap)
	}
	// The survivors are exactly the most recently touched cap-many.
	for w := 2 * blobCacheCap; w < 3*blobCacheCap; w++ {
		if g.joinBlob[w] == nil {
			t.Fatalf("recently touched join blob %d was evicted", w)
		}
	}

	// Touching an old blob moves it off the eviction end.
	g.setJoinBlob(2*blobCacheCap, []byte{1}) // now most recent
	g.setJoinBlob(99, []byte{2})             // evicts 2*cap+1, not 2*cap
	if g.joinBlob[2*blobCacheCap] == nil {
		t.Fatal("touched join blob was evicted ahead of older entries")
	}
	if g.joinBlob[2*blobCacheCap+1] != nil {
		t.Fatal("least-recently-touched join blob survived past the cap")
	}

	// A resumed joiner's blob is cleared without counting an eviction.
	before := atomic.LoadInt64(&nd.stats.MgrCacheEvictions)
	g.setJoinBlob(99, nil)
	if len(g.joinSeen) != blobCacheCap-1 {
		t.Fatalf("clear left %d tracked blobs, want %d", len(g.joinSeen), blobCacheCap-1)
	}
	if got := atomic.LoadInt64(&nd.stats.MgrCacheEvictions); got != before {
		t.Fatalf("explicit clear bumped evictions: %d -> %d", before, got)
	}
}
