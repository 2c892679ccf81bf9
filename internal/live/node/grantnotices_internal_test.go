package node

import (
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/wire"
)

// TestFarBehindGrantCarriesEveryNotice: a grant's notices cover every
// interval between the requester's vector time and the grant time, however
// far behind the requester is, because no node prunes what it learned
// within an epoch. Nodes 0 and 1 ping-pong lock 0, node 0 writing in each
// of its critical sections, so node 1 learns rounds intervals of node 0;
// node 2 then acquires from node 1 with none of them. Its only frame is
// the lock request, and the grant names each missing interval once.
func TestFarBehindGrantCarriesEveryNotice(t *testing.T) {
	const rounds = 1400
	nodes, taps := startTapped(t, Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: time.Hour, // no consensus traffic past the bootstrap
	}, 3)
	a := core.Addr(0)
	for i := 0; i < 2*rounds; i++ {
		nd := nodes[i%2]
		nd.Lock(0)
		if i%2 == 0 {
			nd.WriteU64(a, nd.ReadU64(a)+1)
		}
		nd.Unlock(0)
	}
	for _, tp := range taps {
		tp.mu.Lock()
		tp.sent = nil
		tp.mu.Unlock()
	}
	// The loop ends with node 1 holding the lock's ownership, so the
	// home (node 0) forwards node 2's request there.
	nodes[2].Lock(0)
	var req *wire.Msg
	taps[2].mu.Lock()
	for _, m := range taps[2].sent {
		switch m.Kind {
		case wire.KLockReq:
			req = m
		case wire.KAppendAck, wire.KVoteResp: // the manager replica's own traffic
		default:
			t.Errorf("node 2 sent %v while acquiring; want only its lock-req", m.Kind)
		}
	}
	taps[2].mu.Unlock()
	if req == nil {
		t.Fatal("node 2 sent no lock-req")
	}
	var grant *wire.Msg
	for _, m := range taps[1].frames(wire.KLockGrant) {
		if m.Token == req.Token {
			grant = m
		}
	}
	if grant == nil {
		t.Fatal("node 1 sent node 2 no grant")
	}
	if got := grant.VT[0] - req.VT[0]; got != rounds {
		t.Fatalf("node 2 is %d intervals behind, want %d", got, rounds)
	}
	seen := map[[2]int32]int{}
	for _, nt := range grant.Notices {
		seen[[2]int32{nt.Writer, nt.Index}]++
	}
	for w := range grant.VT {
		for idx := req.VT[w] + 1; idx <= grant.VT[w]; idx++ {
			if c := seen[[2]int32{int32(w), idx}]; c != 1 {
				t.Fatalf("grant names interval (%d, %d) %d times, want once", w, idx, c)
			}
		}
	}
	if len(grant.Notices) != rounds {
		t.Errorf("grant carries %d notices, want %d", len(grant.Notices), rounds)
	}
	if got := nodes[2].ReadU64(a); got != rounds {
		t.Errorf("node 2 read %d after acquiring, want %d", got, rounds)
	}
	nodes[2].Unlock(0)
}

// TestGrantDiffsAllOrNothing, piece (a): a bundle that would leave the
// copy short of its need applies nothing, and the page is pulled. A real
// grant's bundle holds every interval of the page its granter has, and a
// granter missing a noticed interval carries nothing for the page, so a
// short bundle arises only when the acquirer's need already exceeds it (a
// sibling lane's acquire). The test hands applyNotices one directly: C
// writes word 8 and A word 16 of A's page, and B, holding the page from
// before both, is told of both intervals but given only A's diff. Applying
// it alone would make the page readable without C's 9.
func TestGrantDiffsAllOrNothing(t *testing.T) {
	nodes, _ := startTapped(t, Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 3, NBars: 1, Protocol: core.LH, HeartbeatTimeout: -1,
	}, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	if v := b.ReadU64(8); v != 0 { // B caches the page
		t.Fatalf("first read = %d, want 0", v)
	}
	c.Lock(2)
	c.WriteU64(8, 9)
	c.Unlock(2)
	a.Lock(2) // learns C's interval
	a.WriteU64(16, 5)
	a.Unlock(2)

	a.mu.Lock()
	grantVT := a.vt.Clone()
	notices := a.noticesBetweenLocked(nil, grantVT)
	var carried []wire.Diff
	for _, wd := range a.pages[0].log {
		if int(wd.Writer) == a.id {
			carried = append(carried, wd)
		}
	}
	a.mu.Unlock()
	if len(notices) != 2 || len(carried) != 1 {
		t.Fatalf("%d notices and %d diffs of A's own, want 2 and 1", len(notices), len(carried))
	}
	b.applyNotices(grantVT, notices, carried)
	if got8, got16 := b.ReadU64(8), b.ReadU64(16); got8 != 9 || got16 != 5 {
		t.Errorf("B read (%d, %d), want C's 9 and A's 5", got8, got16)
	}
	if s := b.Stats(); s.GrantDiffs != 0 || s.DiffPulls != 1 {
		t.Errorf("grant diffs %d, pulls %d; want the short bundle ignored and one pull", s.GrantDiffs, s.DiffPulls)
	}
}
