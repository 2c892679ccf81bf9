package node

import (
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// Regression tests for the vtalias findings in the distributed lock
// plane: state retained past a dispatcher turn (a queued successor, a
// learned interval log) must own its memory, not alias the decoded
// frame that delivered it — over the in-process transport a self-sent
// frame's slices are shared with the sender's copy of the message.

func newUnstartedNode(t *testing.T) *Node {
	t.Helper()
	cfg := Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: -1,
	}
	trs := transport.NewInprocNetwork(3)
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	// The node is never started: handlers run synchronously on the test
	// goroutine, so the paths that would send are avoided by keeping the
	// lock held (the successor is queued, not granted).
	return New(trs[0], cfg)
}

func TestLockReqClonesRequesterVT(t *testing.T) {
	n := newUnstartedNode(t)
	lk := &n.sy.locks[0]
	lk.owner = 0 // home's probable owner is this node itself
	lk.owned = true
	lk.held = true // worker inside the critical section: request is queued

	m := &wire.Msg{Kind: wire.KLockReq, From: 1, Token: 1, Lock: 0, VT: []int32{7, 3, 0}}
	n.handleLockReq(m)
	if lk.succ == nil {
		t.Fatal("request was not queued as successor")
	}
	m.VT[0] = 99 // the requester's copy of the frame moves on
	if got := lk.succ.vt[0]; got != 7 {
		t.Fatalf("queued successor VT[0] = %d after frame mutation, want 7 (must be cloned)", got)
	}
}

func TestLockForwardClonesRequesterVT(t *testing.T) {
	n := newUnstartedNode(t)
	lk := &n.sy.locks[0]
	lk.owned = true
	lk.held = true

	m := &wire.Msg{Kind: wire.KLockForward, ReqFrom: 2, Token: 1, Lock: 0, VT: []int32{5, 0, 2}}
	n.handleLockForward(m)
	if lk.succ == nil {
		t.Fatal("forwarded request was not queued as successor")
	}
	m.VT[2] = 99
	if got := lk.succ.vt[2]; got != 2 {
		t.Fatalf("queued successor VT[2] = %d after frame mutation, want 2 (must be cloned)", got)
	}
}

func TestRecordKnowledgeClonesNoticePages(t *testing.T) {
	n := newUnstartedNode(t)
	pages := []int32{1, 2, 3}
	n.mu.Lock()
	n.recordKnowledgeLocked([]wire.Notice{{Writer: 1, Index: 1, Pages: pages}})
	n.mu.Unlock()

	k := &n.sy.know[1]
	if k.covered() != 1 {
		t.Fatalf("learned log covers %d, want 1", k.covered())
	}
	pages[0] = 99 // the frame's page list is reused after the handler
	if got := k.pages(1)[0]; got != 1 {
		t.Fatalf("learned log page[0] = %d after frame mutation, want 1 (must be cloned)", got)
	}
}
