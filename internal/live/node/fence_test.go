package node_test

import (
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// TestIncarnationFencing models the delayed-frame hazard after a rejoin:
// the cluster has rolled forward to recovery epoch 1, and frames from a
// node's previous incarnation (stamped epoch 0) surface late. Every such
// frame — whatever its kind — must be fenced at the dispatcher without
// touching protocol state, while current-epoch traffic flows normally.
func TestIncarnationFencing(t *testing.T) {
	trs := transport.NewInprocNetwork(2)
	mgr := node.New(trs[0], node.Config{
		PageSize: 256, NPages: 2, Homes: []int32{0, 0},
		NLocks: 2, NBars: 1, Protocol: core.LI,
		HeartbeatTimeout: -1,
		Recover:          node.RecoverConfig{Store: ckpt.NewMemStore(), Every: 1, Epoch: 1},
	})
	mgr.Start()
	defer func() {
		mgr.Close()
		for _, tr := range trs {
			tr.Close()
		}
		mgr.Wait()
	}()
	raw := trs[1] // node 1 is driven by hand, frame by frame

	// Frames a previous incarnation could plausibly have left in flight:
	// synchronization requests, data requests, flushes, consensus appends
	// and recovery handshake traffic.
	stale := []struct {
		name string
		msg  *wire.Msg
	}{
		{"lock-req", &wire.Msg{Kind: wire.KLockReq, Token: 1, Lock: 0}},
		{"lock-forward", &wire.Msg{Kind: wire.KLockForward, Token: 2, Lock: 0, ReqFrom: 1}},
		{"bar-arrive", &wire.Msg{Kind: wire.KBarArrive, Token: 3, Barrier: 0, Interval: &wire.Interval{}}},
		{"page-req", &wire.Msg{Kind: wire.KPageReq, Token: 4, Page: 0}},
		{"write-notices", &wire.Msg{Kind: wire.KWriteNotices, Token: 5}},
		{"append", &wire.Msg{Kind: wire.KAppend, Token: 6, Term: 1}},
		{"join-req", &wire.Msg{Kind: wire.KJoinReq, Token: 7}},
		{"ckpt-done", &wire.Msg{Kind: wire.KCkptDone, Token: 8, Episode: 1}},
	}
	for i, tc := range stale {
		tc.msg.From = 1
		tc.msg.Epoch = 0 // the previous incarnation's epoch
		if err := raw.Send(0, wire.Encode(tc.msg)); err != nil {
			t.Fatalf("%s: send: %v", tc.name, err)
		}
		want := int64(i + 1)
		deadline := time.Now().Add(2 * time.Second)
		for mgr.Stats().StaleFrames < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: stale frame not fenced (StaleFrames = %d, want %d)",
					tc.name, mgr.Stats().StaleFrames, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A current-epoch lock request must now be granted immediately: had
	// any stale frame been processed, the stale lock-req would hold lock
	// 0 and this request would queue behind it forever.
	grantReq := &wire.Msg{Kind: wire.KLockReq, From: 1, Token: 1, Lock: 0, Epoch: 1}
	if err := raw.Send(0, wire.Encode(grantReq)); err != nil {
		t.Fatal(err)
	}
	recvCh := make(chan *wire.Msg, 1)
	go func() {
		for {
			f, err := raw.Recv()
			if err != nil {
				return
			}
			m, err := wire.Decode(f.Payload)
			if err != nil {
				return
			}
			if m.Kind != wire.KAppend { // node 0 leads and appends to every peer
				recvCh <- m
				return
			}
		}
	}()
	select {
	case m := <-recvCh:
		if m.Kind != wire.KLockGrant || m.Token != 1 {
			t.Fatalf("reply = %v token %d, want lock-grant token 1", m.Kind, m.Token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("current-epoch lock request got no grant — a stale frame mutated manager state")
	}

	// Fencing must leave the request-dedup path untouched: none of the
	// stale tokens may have advanced the client's window.
	if dup := mgr.Stats().DupRequests; dup != 0 {
		t.Errorf("stale frames were routed into dedup (DupRequests = %d, want 0)", dup)
	}
	if sf := mgr.Stats().StaleFrames; sf != int64(len(stale)) {
		t.Errorf("StaleFrames = %d, want exactly %d", sf, len(stale))
	}
}
