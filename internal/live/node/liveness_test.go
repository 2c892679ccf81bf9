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

// TestLivenessCountsVoters pins who may hand down a silence verdict: the
// manager leader, and only while it hears from a majority of the voters,
// itself included. Node 0 runs an engine and leads from the start; every
// other node is a raw transport that either keeps beaconing node 0 or
// has gone silent for good.
func TestLivenessCountsVoters(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		voters []int
		beacon []int // raw nodes that keep beaconing node 0; the rest are dead
		want   int   // node the verdict names, -1 for none
	}{
		// Two nodes: node 0 votes alone, so hearing itself is a majority
		// and node 1's silence is judged.
		{"one-voter group", 2, nil, nil, 1},
		// Five nodes, three voters: both fellow voters are silent, and the
		// two non-voters still beaconing cannot make up the majority — the
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
				HeartbeatInterval: 10 * time.Millisecond,
				HeartbeatTimeout:  timeout,
				Recover: node.RecoverConfig{
					Store:  ckpt.NewMemStore(),
					Voters: tc.voters,
					OnPeerDown: func(pe *node.PeerDownError) bool {
						verdicts <- pe
						return true
					},
				},
			})
			stop := make(chan struct{})
			beaconing := map[int]bool{}
			for _, b := range tc.beacon {
				beaconing[b] = true
				go func(tr transport.Transport) {
					tick := time.NewTicker(10 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-tick.C:
							tr.Send(0, wire.Encode(&wire.Msg{Kind: wire.KHeartbeat, From: int32(tr.Self())}))
						case <-stop:
							return
						}
					}
				}(trs[b])
				go func(tr transport.Transport) {
					for {
						if _, err := tr.Recv(); err != nil {
							return
						}
					}
				}(trs[b])
			}
			for p := 1; p < tc.nodes; p++ {
				if !beaconing[p] {
					trs[p].Close()
				}
			}
			judge.Start()
			defer func() {
				close(stop)
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
