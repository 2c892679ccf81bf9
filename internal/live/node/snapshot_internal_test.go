package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
)

// refSnapshotLocked is the capture the incremental one replaced, kept as
// the reference: every homed page copied, nothing shared. Caller holds
// n.mu.
func refSnapshotLocked(n *Node, episode int64) *ckpt.NodeSnapshot {
	snap := &ckpt.NodeSnapshot{Episode: episode, Node: int32(n.id), VT: n.vt.Clone()}
	for pg := range n.pages {
		if int(n.cfg.Homes[pg]) != n.id {
			continue
		}
		ps := &n.pages[pg]
		src := ps.data
		if ps.twin != nil {
			src = ps.twin
		}
		snap.Pages = append(snap.Pages, ckpt.PageImage{
			Page:   int32(pg),
			Data:   append([]byte(nil), src...),
			HomeVT: ps.homeVT.Clone(),
		})
	}
	return snap
}

// TestIncrementalSnapshotMatchesFullCapture drives two nodes through
// seeded random rounds of writes — to pages homed here and at the peer,
// several writers per page — and checks, at a point inside every round
// (twins open, the peer's flushes landing whenever they land) and after
// every barrier, that the snapshot sharing unchanged images with the
// previous one is byte for byte the full capture taken under the same
// hold of n.mu, home versions included. In between, the cluster is
// rolled back to an earlier snapshot and replayed, and reset to the
// initial image: each must drop the reuse base.
func TestIncrementalSnapshotMatchesFullCapture(t *testing.T) {
	const (
		nn, npages, pageSize = 2, 16, 256
		rounds, back         = 12, 5
	)
	for _, seed := range []int64{1, 2, 3} {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			cfg := Config{
				PageSize: pageSize, NPages: npages, Homes: make([]int32, npages),
				NLocks: 1, NBars: 1, Protocol: prot,
				HeartbeatTimeout: -1, RPCTimeout: 20 * time.Second,
			}
			for pg := range cfg.Homes {
				cfg.Homes[pg] = int32(pg % nn)
			}
			trs := transport.NewInprocNetwork(nn)
			nodes := make([]*Node, nn)
			for i := range nodes {
				nodes[i] = New(trs[i], cfg)
				nodes[i].Start()
			}
			var shared, copied [nn]int
			snaps := make([][]*ckpt.NodeSnapshot, nn)
			for i := range snaps {
				snaps[i] = make([]*ckpt.NodeSnapshot, rounds)
			}
			// check is the checkpointing worker's capture with the reference
			// taken beside it.
			check := func(n *Node, episode int64) *ckpt.NodeSnapshot {
				prev := n.lastSnap
				n.mu.Lock()
				inc, fresh := n.snapshotLocked(episode)
				ref := refSnapshotLocked(n, episode)
				n.mu.Unlock()
				n.lastSnap = inc
				if !bytes.Equal(ckpt.EncodeNode(inc), ckpt.EncodeNode(ref)) {
					t.Errorf("seed %d %v node %d episode %d: incremental snapshot differs from the full capture", seed, prot, n.id, episode)
				}
				var unshared []int
				for k := range inc.Pages {
					if prev != nil && &inc.Pages[k].Data[0] == &prev.Pages[k].Data[0] {
						shared[n.id]++
					} else {
						copied[n.id]++
						unshared = append(unshared, k)
					}
				}
				// fresh is what a page push sends: exactly the images the
				// capture did not share.
				if fmt.Sprint(fresh) != fmt.Sprint(unshared) {
					t.Errorf("seed %d %v node %d episode %d: fresh images %v, want %v", seed, prot, n.id, episode, fresh, unshared)
				}
				return inc
			}
			run := func(n *Node, upto int) {
				for r := 0; r < upto; r++ {
					rng := rand.New(rand.NewSource(seed<<20 | int64(r)<<4 | int64(n.id)))
					writes := rng.Intn(7)
					mid := rng.Intn(writes + 1)
					for w := 0; w < writes; w++ {
						// Word slots are split between the nodes, so
						// pages have several writers and the program
						// stays free of data races.
						word := nn*rng.Intn(pageSize/8/nn) + n.id
						n.WriteU64(core.Addr(rng.Intn(npages)*pageSize+8*word), rng.Uint64())
						if w == mid && !n.replaying {
							check(n, 0)
						}
					}
					n.Barrier(0)
					if !n.replaying {
						snaps[n.id][r] = check(n, int64(2*r+1))
					}
					n.Barrier(0)
				}
			}
			runAll := func(upto int) {
				var wg sync.WaitGroup
				for _, n := range nodes {
					wg.Add(1)
					go func(n *Node) {
						defer wg.Done()
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("worker %d: %v", n.id, r)
							}
						}()
						run(n, upto)
					}(n)
				}
				wg.Wait()
			}

			runAll(rounds)
			// Roll back to the cut after round `back`'s first barrier and
			// run the rest again.
			for _, n := range nodes {
				n.ResetToCheckpoint(snaps[n.id][back])
				if n.lastSnap != nil {
					t.Error("ResetToCheckpoint kept the reuse base")
				}
				n.BeginReplay(int64(2*back + 1))
			}
			before := shared
			runAll(rounds)
			for i := range nodes {
				if got, want := shared[i]-before[i], 0; got == want {
					t.Errorf("node %d shared no image after the rollback", i)
				}
			}
			for _, n := range nodes {
				n.ResetToCheckpoint(nil)
				n.BeginReplay(0)
			}
			runAll(rounds / 2)

			for i := range nodes {
				if shared[i] == 0 || copied[i] == 0 {
					t.Errorf("seed %d %v node %d: %d images shared, %d copied; the schedule should produce both", seed, prot, i, shared[i], copied[i])
				}
			}
			for _, n := range nodes {
				n.Close()
			}
			for _, tr := range trs {
				tr.Close()
			}
			for _, n := range nodes {
				n.Wait()
			}
		}
	}
}
