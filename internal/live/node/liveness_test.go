package node_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// TestLivenessCountsVoters pins who may hand down a silence verdict: the
// manager leader, and only while it hears from a majority of the voters,
// itself included. Node 0 runs an engine and leads from the start; every
// other node is a raw transport that either keeps acking node 0's
// appends or has gone silent for good.
func TestLivenessCountsVoters(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		voters []int
		acking []int // raw nodes that ack node 0's appends; the rest are dead
		want   int   // node the verdict names, -1 for none
	}{
		// Two nodes: node 0 votes alone, so hearing itself is a majority
		// and node 1's silence is judged.
		{"one-voter group", 2, nil, nil, 1},
		// Five nodes, three voters: both fellow voters are silent, and the
		// two non-voters still acking cannot make up the majority — the
		// leader is probably the partitioned one and withholds verdicts.
		{"non-voters do not count", 5, []int{0, 1, 2}, []int{3, 4}, -1},
	}
	const timeout = 150 * time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trs := transport.NewInprocNetwork(tc.nodes)
			verdicts := make(chan *node.PeerDownError, tc.nodes)
			judge := node.New(trs[0], node.Config{
				PageSize: 256, NPages: 1, Homes: []int32{0},
				NLocks: 1, NBars: 1, Protocol: core.LI,
				HeartbeatTimeout: timeout,
				Recover: node.RecoverConfig{
					Store:  ckpt.NewMemStore(),
					Voters: tc.voters,
					OnPeerDown: func(pe *node.PeerDownError) bool {
						verdicts <- pe
						return true
					},
				},
			})
			acking := map[int]bool{}
			for _, b := range tc.acking {
				acking[b] = true
				go func(tr transport.Transport) {
					for {
						f, err := tr.Recv()
						if err != nil {
							return
						}
						m, err := wire.Decode(f.Payload)
						if err != nil || m.Kind != wire.KAppend {
							continue
						}
						tr.Send(0, wire.Encode(&wire.Msg{
							Kind: wire.KAppendAck, From: int32(tr.Self()), Term: m.Term,
							LogIndex: m.LogIndex,
						}))
					}
				}(trs[b])
			}
			for p := 1; p < tc.nodes; p++ {
				if !acking[p] {
					trs[p].Close()
				}
			}
			judge.Start()
			defer func() {
				judge.Close()
				for _, tr := range trs {
					tr.Close()
				}
				judge.Wait()
			}()

			select {
			case pe := <-verdicts:
				if tc.want < 0 {
					t.Fatalf("verdict on node %d from a leader that hears no voter majority", pe.Node)
				}
				if pe.Node != tc.want {
					t.Fatalf("verdict names node %d, want %d", pe.Node, tc.want)
				}
			case <-time.After(10 * timeout):
				if tc.want >= 0 {
					t.Fatalf("node %d silent for %v and never judged", tc.want, 10*timeout)
				}
			}
		})
	}
}

// TestNonVoterOutlivesLeaderChange cuts the bootstrap leader (node 0)
// off from its fellow voters 1 and 2 for 400 ms on a five-node cluster
// whose nodes 3 and 4 do not vote. Node 0 steps down and 1 or 2 is
// elected. The new leader must not judge the live, connected non-voters
// on silence from before it took office, and they must learn who leads.
func TestNonVoterOutlivesLeaderChange(t *testing.T) {
	const (
		nodes   = 5
		timeout = 150 * time.Millisecond
		healAt  = 450 * time.Millisecond
	)
	trs := chaos.WrapAll(transport.NewInprocNetwork(nodes), chaos.Config{
		Partitions: []chaos.Partition{
			{A: 0, B: 1, From: 50 * time.Millisecond, Dur: 400 * time.Millisecond},
			{A: 0, B: 2, From: 50 * time.Millisecond, Dur: 400 * time.Millisecond},
		},
	})
	var (
		mu       sync.Mutex
		verdicts []string
		named    = map[int]bool{}
	)
	ns := make([]*node.Node, nodes)
	for i := range ns {
		judge := i
		ns[i] = node.New(trs[i], node.Config{
			PageSize: 256, NPages: 1, Homes: []int32{0},
			NLocks: 1, NBars: 1, Protocol: core.LI,
			HeartbeatTimeout: timeout,
			Recover: node.RecoverConfig{
				Store:  ckpt.NewMemStore(),
				Voters: []int{0, 1, 2},
				OnPeerDown: func(pe *node.PeerDownError) bool {
					mu.Lock()
					verdicts = append(verdicts, fmt.Sprintf("judge %d names %d after %v", judge, pe.Node, pe.Silence))
					named[pe.Node] = true
					mu.Unlock()
					return true
				},
			},
		})
	}
	t0 := time.Now()
	for _, n := range ns {
		n.Start()
	}
	defer func() {
		for _, n := range ns {
			n.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, n := range ns {
			n.Wait()
		}
	}()

	// After the heal every node must follow one leader, which says so.
	time.Sleep(healAt - time.Since(t0))
	converged := func() bool {
		ldr, _ := ns[1].ConsensusLeader()
		if ldr < 0 {
			return false
		}
		if _, is := ns[ldr].ConsensusLeader(); !is {
			return false
		}
		for _, n := range ns {
			if l, _ := n.ConsensusLeader(); l != ldr {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(20 * timeout); !converged(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			views := make([]int, nodes)
			for i, n := range ns {
				views[i], _ = n.ConsensusLeader()
			}
			t.Errorf("no common leader %v after the heal; leader views by node: %v", 20*timeout, views)
			break
		}
	}
	// Give every judge a few more sweeps to hand down a late verdict.
	time.Sleep(5 * timeout)

	mu.Lock()
	defer mu.Unlock()
	t.Logf("verdicts: %v", verdicts)
	for _, w := range []int{3, 4} {
		if named[w] {
			t.Errorf("live, connected non-voter %d was named dead: %v", w, verdicts)
		}
	}
}
