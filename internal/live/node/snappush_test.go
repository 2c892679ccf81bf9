package node_test

import (
	"bytes"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// These tests pin the snapshot push stream (pushSnapshot / snapPush):
// all chunks in the air, one acknowledgement, chunks placed by index. A
// transport wrapper drops, duplicates and reorders the pusher's
// KSnapPush frames, or the leader dies under the stream; each time the
// pusher's worker must get past the checkpoint and the replica at the
// manager must be byte-identical to the snapshot in the pusher's store.

// pushPages homes enough pages at the pusher that its snapshot takes
// several chunks (32 KiB each).
const pushPages = 40

func pushCfg(pusher int, store ckpt.Store) node.Config {
	homes := make([]int32, pushPages)
	for i := range homes {
		homes[i] = int32(pusher)
	}
	return node.Config{
		PageSize: 4096, NPages: pushPages, Homes: homes,
		NLocks: 1, NBars: 1, Protocol: core.LH,
		HeartbeatTimeout: -1,
		RetryBase:        20 * time.Millisecond,
		RetryMax:         50 * time.Millisecond, // a manager RPC tries its next target after 4x this
		Recover:          node.RecoverConfig{Store: store, Every: 1, Replicate: true},
	}
}

// checkpointOnce is every worker's body: the pusher dirties each page it
// homes, then all cross barrier episode 1, which takes a checkpoint.
func checkpointOnce(nd *node.Node, pusher bool) func() {
	return checkpointWith(nd, pusher, 0xC0FFEE00)
}

// checkpointWith is checkpointOnce with the values the pusher writes
// chosen by the caller.
func checkpointWith(nd *node.Node, pusher bool, base uint64) func() {
	return func() {
		if pusher {
			for pg := 0; pg < pushPages; pg++ {
				nd.WriteU64(core.Addr(pg*4096+8*(pg%7)), base+uint64(pg))
			}
		}
		nd.Barrier(0)
	}
}

func stopNodes(nodes []*node.Node, trs []transport.Transport) {
	for _, nd := range nodes {
		nd.Close()
	}
	for _, tr := range trs {
		tr.Close()
	}
	for _, nd := range nodes {
		nd.Wait()
	}
}

func sameSnapshot(t *testing.T, replica, local ckpt.Store, pusher int) {
	t.Helper()
	want, err := local.GetNode(1, pusher)
	if err != nil {
		t.Fatalf("pusher's own store: %v", err)
	}
	got, err := replica.GetNode(1, pusher)
	if err != nil {
		t.Fatalf("manager's store holds no replica: %v", err)
	}
	if !bytes.Equal(ckpt.EncodeNode(got), ckpt.EncodeNode(want)) {
		t.Error("replica differs from the pusher's snapshot")
	}
	if want.Bytes() != pushPages*4096 {
		t.Errorf("snapshot holds %d bytes, want %d", want.Bytes(), pushPages*4096)
	}
}

func chunkOf(t *testing.T, payload []byte) *wire.Msg {
	m, err := wire.Decode(payload)
	if err != nil {
		t.Errorf("undecodable KSnapPush frame: %v", err)
		return &wire.Msg{}
	}
	return m
}

func TestPushStreamFaults(t *testing.T) {
	cases := []struct {
		name string
		// rewrite builds the fault; sent counts frames per chunk index.
		rewrite func(t *testing.T, sent map[int32]int) func([]byte) [][]byte
		// resent says whether the fault must cost a second stream.
		resent bool
	}{
		{"drop a middle chunk", func(t *testing.T, sent map[int32]int) func([]byte) [][]byte {
			return func(p []byte) [][]byte {
				m := chunkOf(t, p)
				sent[m.Chunk]++
				if m.Chunk == 2 && sent[2] == 1 {
					return nil
				}
				return [][]byte{p}
			}
		}, true},
		{"duplicate a chunk", func(t *testing.T, sent map[int32]int) func([]byte) [][]byte {
			return func(p []byte) [][]byte {
				m := chunkOf(t, p)
				sent[m.Chunk]++
				if m.Chunk == 2 {
					return [][]byte{p, append([]byte(nil), p...)}
				}
				return [][]byte{p}
			}
		}, false},
		{"swap two chunks", func(t *testing.T, sent map[int32]int) func([]byte) [][]byte {
			var kept []byte
			return func(p []byte) [][]byte {
				m := chunkOf(t, p)
				sent[m.Chunk]++
				switch {
				case m.Chunk == 2 && sent[2] == 1:
					kept = p
					return nil
				case m.Chunk == 3 && kept != nil:
					out := [][]byte{p, kept}
					kept = nil
					return out
				}
				return [][]byte{p}
			}
		}, false},
		{"last chunk overtakes the one before it", func(t *testing.T, sent map[int32]int) func([]byte) [][]byte {
			var kept []byte
			return func(p []byte) [][]byte {
				m := chunkOf(t, p)
				sent[m.Chunk]++
				switch {
				case m.Chunk == m.NChunks-2 && sent[m.Chunk] == 1:
					kept = p
					return nil
				case m.Chunk == m.NChunks-1 && kept != nil:
					out := [][]byte{p, kept}
					kept = nil
					return out
				}
				return [][]byte{p}
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stores := []ckpt.Store{ckpt.NewMemStore(), ckpt.NewMemStore()}
			trs := transport.NewInprocNetwork(2)
			sent := map[int32]int{}
			gate := &flushGate{Transport: trs[1], kind: wire.KSnapPush, rewrite: tc.rewrite(t, sent)}
			nodes := []*node.Node{
				node.New(trs[0], pushCfg(1, stores[0])),
				node.New(gate, pushCfg(1, stores[1])),
			}
			for _, nd := range nodes {
				nd.Start()
			}
			defer stopNodes(nodes, trs)
			runWorkers(t, checkpointOnce(nodes[0], false), checkpointOnce(nodes[1], true))
			sameSnapshot(t, stores[0], stores[1], 1)

			gate.mu.Lock()
			defer gate.mu.Unlock()
			if len(sent) < 5 {
				t.Fatalf("the snapshot went out in %d chunks; the faults need at least 5", len(sent))
			}
			if again := sent[0] > 1; again != tc.resent {
				t.Errorf("stream sent again = %v, want %v (chunk 0 went out %d times)", again, tc.resent, sent[0])
			}
			if st := nodes[1].Stats(); st.RPCRetries != 0 {
				t.Errorf("%d timer-driven retransmissions: the redirect should have restarted the stream at once", st.RPCRetries)
			}
		})
	}
}

// TestPushStreamAfterRollback pushes checkpoint 1, rolls the cluster back
// to its initial state the way the supervisor does (new epoch, manager
// reset, nodes reset) and runs to checkpoint 1 again with different
// contents, as an application that is not bit-deterministic on replay
// would. The manager's replica must be the second execution's snapshot:
// a replica kept from the abandoned execution would hand a rejoining node
// a state no surviving node agrees with.
func TestPushStreamAfterRollback(t *testing.T) {
	stores := []ckpt.Store{ckpt.NewMemStore(), ckpt.NewMemStore()}
	trs := transport.NewInprocNetwork(2)
	nodes := []*node.Node{
		node.New(trs[0], pushCfg(1, stores[0])),
		node.New(trs[1], pushCfg(1, stores[1])),
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer stopNodes(nodes, trs)
	runWorkers(t, checkpointWith(nodes[0], false, 0), checkpointWith(nodes[1], true, 0xAAAA0000))
	sameSnapshot(t, stores[0], stores[1], 1)
	abandoned, err := stores[0].GetNode(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, nd := range nodes {
		nd.SetEpoch(1)
	}
	if err := nodes[0].ResetManager(0, -1); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		nd.ResetToCheckpoint(nil)
		nd.BeginReplay(0)
	}
	runWorkers(t, checkpointWith(nodes[0], false, 0), checkpointWith(nodes[1], true, 0xBBBB0000))
	sameSnapshot(t, stores[0], stores[1], 1)
	if got, _ := stores[0].GetNode(1, 1); got == abandoned {
		t.Error("the manager still holds the replica pushed before the rollback")
	}
}

// TestPushStreamLeaderChange kills the quorum's leader while a
// non-voting node's whole stream to it is held in the network. The
// frames die with the old leader, the last chunk's RPC finds its
// successor, which has none of the stream and says so, and the stream
// goes out again: the successor ends up with the replica.
func TestPushStreamLeaderChange(t *testing.T) {
	const nn, pusher = 4, 3
	trs := transport.NewInprocNetwork(nn)
	gate := &flushGate{Transport: trs[pusher], kind: wire.KSnapPush}
	gate.hold()
	stores := make([]ckpt.Store, nn)
	nodes := make([]*node.Node, nn)
	for i := range nodes {
		stores[i] = ckpt.NewMemStore()
		cfg := pushCfg(pusher, stores[i])
		cfg.RPCTimeout = 20 * time.Second
		cfg.Recover.Consensus = consensus.NewStable()
		cfg.Recover.Seed = int64(i + 1)
		cfg.Recover.Voters = []int{0, 1, 2}
		var tr transport.Transport = trs[i]
		if i == pusher {
			tr = gate
		}
		nodes[i] = node.New(tr, cfg)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer stopNodes(nodes, trs)

	killed := make(chan int, 1)
	go func() {
		// The whole stream, last chunk included, is in the network.
		waitFor(t, "the pusher's stream to be held", nil, func() bool {
			gate.mu.Lock()
			defer gate.mu.Unlock()
			return len(gate.held) > 5
		})
		old, _ := nodes[pusher].ConsensusLeader()
		if old < 0 || old == pusher {
			t.Errorf("pusher believes node %d leads", old)
			old = 0
		}
		nodes[old].Close()
		waitFor(t, "a successor to be elected", nil, func() bool {
			for i := 0; i < pusher; i++ {
				if _, is := nodes[i].ConsensusLeader(); is && i != old {
					return true
				}
			}
			return false
		})
		gate.release()
		killed <- old
	}()

	bodies := make([]func(), nn)
	for i := range bodies {
		body := checkpointOnce(nodes[i], i == pusher)
		// The killed leader's worker unwinds with its engine's error.
		bodies[i] = func() { unwound(body) }
	}
	bodies[pusher] = checkpointOnce(nodes[pusher], true)
	runWorkers(t, bodies...)

	old := <-killed
	for i := 0; i < pusher; i++ {
		if _, is := nodes[i].ConsensusLeader(); is && i != old {
			sameSnapshot(t, stores[i], stores[pusher], pusher)
			return
		}
	}
	t.Error("no successor leads at the end")
}
