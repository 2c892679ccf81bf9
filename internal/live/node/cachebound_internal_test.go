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
