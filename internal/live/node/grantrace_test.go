package node_test

import (
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/page"
)

// TestDuplicatedForwardsReserveGrants pins the reply cache's ownership
// rule: a grant handed to a successor by Unlock is sent from the worker
// goroutine after the node mutex is dropped, while a duplicated
// lock-forward for the same token makes the dispatcher re-serve the
// cached grant — and send stamps the envelope of whatever it is given.
// The cache must therefore hold its own copy. Every frame is duplicated
// and most originals are delayed, so late duplicates keep landing on a
// lock that three nodes hand around continuously; under -race a shared
// message shows up as a write/write race in send.
func TestDuplicatedForwardsReserveGrants(t *testing.T) {
	const nn, iters = 3, 300
	cfg := node.Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LH,
		HeartbeatTimeout: -1,
		RetryBase:        20 * time.Millisecond,
	}
	wrapped := chaos.WrapAll(transport.NewInprocNetwork(nn), chaos.Config{
		Seed: 1, DupP: 1, DelayP: 0.7, DelayMax: 300 * time.Microsecond,
	})
	nodes := make([]*node.Node, nn)
	for i := range nodes {
		nodes[i] = node.New(wrapped[i], cfg)
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range wrapped {
			tr.Close()
		}
		for _, nd := range nodes {
			nd.Wait()
		}
	}()

	bodies := make([]func(), nn)
	for i := range bodies {
		w := nodes[i]
		bodies[i] = func() {
			for k := 0; k < iters; k++ {
				w.Lock(0)
				w.WriteU64(0, w.ReadU64(0)+1)
				w.Unlock(0)
			}
			w.Barrier(0)
		}
	}
	runWorkers(t, bodies...)
	img := make([]byte, 8)
	nodes[0].CopyHomePage(0, img)
	if got := page.Buf(img).U64(0); got != nn*iters {
		t.Errorf("counter = %d, want %d", got, nn*iters)
	}
	var dups int64
	for _, nd := range nodes {
		dups += nd.Stats().DupRequests
	}
	if dups == 0 {
		t.Error("no duplicated request was de-duplicated — the schedule exercised nothing")
	}
}
