package node

import (
	"fmt"
	"testing"

	"lrcdsm/internal/core"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
)

// The checkpoint data path's two halves, beside the code (`make
// bench-node`): what a capture costs as a function of how much changed
// since the previous one, and what it costs to get a snapshot from a
// node into the leader's store.

const ckptBenchPages = 512

func ckptBenchNodes(b *testing.B, nn int, rc func(i int) RecoverConfig) []*Node {
	b.Helper()
	trs := transport.NewInprocNetwork(nn)
	nodes := make([]*Node, nn)
	for i := range nodes {
		homes := make([]int32, ckptBenchPages)
		for pg := range homes {
			homes[pg] = int32(nn - 1) // the last node homes (and pushes) everything
		}
		nodes[i] = New(trs[i], Config{
			PageSize: 4096, NPages: ckptBenchPages, Homes: homes,
			NLocks: 1, NBars: 1, Protocol: core.LH,
			HeartbeatTimeout: -1, Recover: rc(i),
		})
		nodes[i].Start()
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			waitClosed(b, nd)
		}
	})
	return nodes
}

var ckptSink *ckpt.NodeSnapshot

// BenchmarkCaptureCheckpoint: one capture of 512 homed pages (2 MiB)
// after the worker rewrote none, half, or all of them since the previous
// capture. B/op is what the snapshot does not share with that one.
func BenchmarkCaptureCheckpoint(b *testing.B) {
	for _, pct := range []int{0, 50, 100} {
		b.Run(fmt.Sprintf("rewritten=%d%%", pct), func(b *testing.B) {
			n := ckptBenchNodes(b, 1, func(int) RecoverConfig { return RecoverConfig{} })[0]
			n.mu.Lock()
			n.lastSnap, _ = n.snapshotLocked(0)
			n.mu.Unlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.mu.Lock()
				// What a closed interval leaves on a page it wrote, without
				// the interval: the home version moves (the timer stays on,
				// this is ~1 ns a page).
				for pg := 0; pg < ckptBenchPages*pct/100; pg++ {
					n.pages[pg].homeVT[0]++
				}
				snap, _ := n.snapshotLocked(int64(i + 1))
				n.mu.Unlock()
				n.lastSnap = snap
			}
			ckptSink = n.lastSnap
		})
	}
}

// BenchmarkSnapPush: a 2 MiB snapshot pushed into the manager's store,
// in-process, with half or all of its pages changed since the previous
// push — every changed page through the wire codec as its own frame,
// then the seal, which builds the replica over the previous one and puts
// it; the benchmark goroutine is the pushing worker and waits for the
// one acknowledgement. SetBytes counts the pushed pages only.
func BenchmarkSnapPush(b *testing.B) {
	for _, pct := range []int{50, 100} {
		b.Run(fmt.Sprintf("rewritten=%d%%", pct), func(b *testing.B) {
			store := ckpt.NewMemStore()
			nodes := ckptBenchNodes(b, 2, func(i int) RecoverConfig {
				if i == 0 {
					return RecoverConfig{Store: store, Replicate: true}
				}
				return RecoverConfig{Store: ckpt.NewMemStore(), Replicate: true}
			})
			n := nodes[1]
			n.mu.Lock()
			snap, all := n.snapshotLocked(1)
			n.mu.Unlock()
			n.pushSnapshot(snap, 0, all) // the base every timed push goes on
			fresh := all[:len(all)*pct/100]
			b.SetBytes(snap.Bytes() * int64(pct) / 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Episode = int64(i + 2)
				n.pushSnapshot(snap, snap.Episode-1, fresh)
				if err := store.Prune(keepCheckpoints); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			got, err := store.GetNode(int64(b.N+1), 1)
			if err != nil || got.Bytes() != snap.Bytes() {
				b.Fatalf("the manager's store holds no replica of the last push: %v", err)
			}
			if st := n.Stats(); st.LeaderRedirects != 0 {
				b.Fatalf("%d pushes were redirected: the leader lost its base", st.LeaderRedirects)
			}
		})
	}
}
