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

// TestManagerBlobCachesBounded storms the manager's two snapshot-blob
// caches — inbound push assemblies and outbound join blobs — with far
// more concurrent streams than blobCacheCap and checks the LRU
// discipline: the maps never exceed the cap, the least-recently-touched
// entry is the one evicted, explicit clears drop entries without
// counting as evictions, and every forced eviction lands in
// mgr_cache_evictions.
func TestManagerBlobCachesBounded(t *testing.T) {
	nd := &Node{nn: 64}
	g := newManager(nd)

	// Push-assembly storm: 3x the cap, round-robin touches.
	for w := 0; w < 3*blobCacheCap; w++ {
		g.setPush(w, &pushAsm{})
		if len(g.push) > blobCacheCap {
			t.Fatalf("push cache grew to %d entries (cap %d)", len(g.push), blobCacheCap)
		}
	}
	if got := atomic.LoadInt64(&nd.stats.MgrCacheEvictions); got != 2*blobCacheCap {
		t.Fatalf("push evictions = %d, want %d", got, 2*blobCacheCap)
	}
	// The survivors are exactly the most recently touched cap-many.
	for w := 2 * blobCacheCap; w < 3*blobCacheCap; w++ {
		if g.push[w] == nil {
			t.Fatalf("recently touched push assembly %d was evicted", w)
		}
	}

	// Touching an old stream moves it off the eviction end.
	g.setPush(2*blobCacheCap, &pushAsm{}) // now most recent
	g.setPush(99, &pushAsm{})             // evicts 2*cap+1, not 2*cap
	if g.push[2*blobCacheCap] == nil {
		t.Fatal("touched push assembly was evicted ahead of older entries")
	}
	if g.push[2*blobCacheCap+1] != nil {
		t.Fatal("least-recently-touched push assembly survived past the cap")
	}

	// Completing a stream clears its slot without counting an eviction.
	before := atomic.LoadInt64(&nd.stats.MgrCacheEvictions)
	g.setPush(99, nil)
	if len(g.pushSeen) != blobCacheCap-1 {
		t.Fatalf("clear left %d tracked streams, want %d", len(g.pushSeen), blobCacheCap-1)
	}
	if got := atomic.LoadInt64(&nd.stats.MgrCacheEvictions); got != before {
		t.Fatalf("explicit clear bumped evictions: %d -> %d", before, got)
	}

	// Join-blob storm: same discipline on the outbound cache.
	for w := 0; w < 2*blobCacheCap; w++ {
		g.setJoinBlob(w, []byte{byte(w)})
		if len(g.joinBlob) > blobCacheCap {
			t.Fatalf("join cache grew to %d entries (cap %d)", len(g.joinBlob), blobCacheCap)
		}
	}
	if got := atomic.LoadInt64(&nd.stats.MgrCacheEvictions) - before; got != blobCacheCap {
		t.Fatalf("join evictions = %d, want %d", got, blobCacheCap)
	}
}
