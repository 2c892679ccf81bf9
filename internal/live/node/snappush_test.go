package node_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// These tests pin the snapshot page push (pushSnapshot / snapPage /
// snapSeal): every page the capture copied goes out as an
// unacknowledged frame, one seal is acknowledged once the leader stored
// the snapshot, and the leader builds it over the replica it stored
// itself for the previous episode. A transport wrapper counts, drops,
// duplicates and reorders the pusher's frames and seals, the leader
// changes, or the cluster rolls back; each time the pusher's worker must
// get past the checkpoint and the replica at the manager must be
// byte-identical to the snapshot in the pusher's store.

// pushPages homes enough pages at the pusher that a fault can pick a
// frame in the middle of a push.
const pushPages = 40

// somePages is what the pusher rewrites before its second checkpoint.
var somePages = []int{3, 7, 8, 20, 33}

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

func allPages() []int {
	pages := make([]int, pushPages)
	for i := range pages {
		pages[i] = i
	}
	return pages
}

// checkpointOnce is every worker's body: the pusher dirties each page it
// homes, then all cross the next barrier episode, which takes a
// checkpoint.
func checkpointOnce(nd *node.Node, pusher bool) func() {
	return checkpointWith(nd, pusher, 0xC0FFEE00)
}

// checkpointWith is checkpointOnce with the values the pusher writes
// chosen by the caller.
func checkpointWith(nd *node.Node, pusher bool, base uint64, pages ...[]int) func() {
	if len(pages) == 0 {
		pages = [][]int{allPages()}
	}
	return func() {
		for r, set := range pages {
			if pusher {
				for _, pg := range set {
					nd.WriteU64(core.Addr(pg*4096+8*(pg%7)), base+uint64(r)<<16+uint64(pg))
				}
			}
			nd.Barrier(0)
		}
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

// sameSnapshot checks the manager's replica of the pusher's snapshot of
// each episode against the one in the pusher's own store.
func sameSnapshot(t *testing.T, replica, local ckpt.Store, pusher int, episodes ...int64) {
	t.Helper()
	if len(episodes) == 0 {
		episodes = []int64{1}
	}
	for _, k := range episodes {
		want, err := local.GetNode(k, pusher)
		if err != nil {
			t.Fatalf("pusher's own store, episode %d: %v", k, err)
		}
		got, err := replica.GetNode(k, pusher)
		if err != nil {
			t.Fatalf("manager's store holds no replica of episode %d: %v", k, err)
		}
		if !bytes.Equal(ckpt.EncodeNode(got), ckpt.EncodeNode(want)) {
			t.Errorf("replica of episode %d differs from the pusher's snapshot", k)
		}
		if want.Bytes() != pushPages*4096 {
			t.Errorf("snapshot of episode %d holds %d bytes, want %d", k, want.Bytes(), pushPages*4096)
		}
	}
}

// pushTap wraps a pusher's transport. It counts the snapshot page frames
// and seals sent to each node per episode, lets a test's fault function
// rewrite them (none drops one, two duplicate it, a frame kept back and
// returned with a later one is reordered), and holds every one of them
// while hold is set.
type pushTap struct {
	transport.Transport
	t       *testing.T
	mu      sync.Mutex
	frames  map[[2]int64]int // (to, episode)
	seals   map[[2]int64]int
	fault   func(m *wire.Msg, payload []byte) [][]byte // called under mu
	holding bool
	held    []heldFlush
}

func newPushTap(t *testing.T, tr transport.Transport) *pushTap {
	return &pushTap{Transport: tr, t: t, frames: map[[2]int64]int{}, seals: map[[2]int64]int{}}
}

func (p *pushTap) Send(to int, payload []byte) error {
	if len(payload) < 2 || wire.Kind(payload[1]) != wire.KSnapPush && wire.Kind(payload[1]) != wire.KSnapSeal {
		return p.Transport.Send(to, payload)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		p.t.Errorf("undecodable %v frame: %v", wire.Kind(payload[1]), err)
		return p.Transport.Send(to, payload)
	}
	p.mu.Lock()
	key := [2]int64{int64(to), m.Episode}
	if m.Kind == wire.KSnapPush {
		p.frames[key]++
	} else {
		p.seals[key]++
	}
	if p.holding {
		p.held = append(p.held, heldFlush{to: to, payload: payload})
		p.mu.Unlock()
		return nil
	}
	out := [][]byte{payload}
	if p.fault != nil {
		out = p.fault(m, payload)
	}
	p.mu.Unlock()
	for _, b := range out {
		if err := p.Transport.Send(to, b); err != nil {
			return err
		}
	}
	return nil
}

func (p *pushTap) hold() {
	p.mu.Lock()
	p.holding = true
	p.mu.Unlock()
}

func (p *pushTap) release() {
	p.mu.Lock()
	held := p.held
	p.held, p.holding = nil, false
	p.mu.Unlock()
	for _, h := range held {
		p.Transport.Send(h.to, h.payload)
	}
}

// sent returns the page frames and seals the pusher sent for episode,
// to node to (-1: to any node).
func (p *pushTap) sent(to int, episode int64) (frames, seals int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, c := range p.frames {
		if k[1] == episode && (to < 0 || k[0] == int64(to)) {
			frames += c
		}
	}
	for k, c := range p.seals {
		if k[1] == episode && (to < 0 || k[0] == int64(to)) {
			seals += c
		}
	}
	return frames, seals
}

// startPair starts a two-node cluster whose node 1 homes every page and
// pushes its snapshots to node 0, the manager's only voter, through a
// pushTap.
func startPair(t *testing.T) (nodes []*node.Node, stores []ckpt.Store, tap *pushTap) {
	stores = []ckpt.Store{ckpt.NewMemStore(), ckpt.NewMemStore()}
	trs := transport.NewInprocNetwork(2)
	tap = newPushTap(t, trs[1])
	nodes = []*node.Node{
		node.New(trs[0], pushCfg(1, stores[0])),
		node.New(tap, pushCfg(1, stores[1])),
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() { stopNodes(nodes, trs) })
	return nodes, stores, tap
}

// TestPushOnlyChangedPages takes a second checkpoint after the pusher
// rewrote a few of its pages: only those pages' frames go out, and the
// leader builds the rest of the replica from its replica of the first.
func TestPushOnlyChangedPages(t *testing.T) {
	nodes, stores, tap := startPair(t)
	runWorkers(t, checkpointWith(nodes[0], false, 0, allPages(), somePages),
		checkpointWith(nodes[1], true, 0xAB000000, allPages(), somePages))
	sameSnapshot(t, stores[0], stores[1], 1, 1, 2)
	if frames, seals := tap.sent(0, 1); frames != pushPages || seals != 1 {
		t.Errorf("episode 1 sent %d frames and %d seals, want %d and 1", frames, seals, pushPages)
	}
	if frames, seals := tap.sent(0, 2); frames != len(somePages) || seals != 1 {
		t.Errorf("episode 2 sent %d frames and %d seals, want %d and 1", frames, seals, len(somePages))
	}
	if st := nodes[1].Stats(); st.RPCRetries != 0 || st.LeaderRedirects != 0 {
		t.Errorf("%d retransmissions and %d redirects on a clean network", st.RPCRetries, st.LeaderRedirects)
	}
}

// TestPushNothingChanged takes a second checkpoint after the pusher
// wrote nothing: the seal goes out alone and the replica is the first
// one's images under the new episode.
func TestPushNothingChanged(t *testing.T) {
	nodes, stores, tap := startPair(t)
	runWorkers(t, checkpointWith(nodes[0], false, 0, allPages(), nil),
		checkpointWith(nodes[1], true, 0xAC000000, allPages(), nil))
	sameSnapshot(t, stores[0], stores[1], 1, 1, 2)
	if frames, seals := tap.sent(0, 2); frames != 0 || seals != 1 {
		t.Errorf("episode 2 sent %d frames and %d seals, want only the seal", frames, seals)
	}
}

// TestPushStreamFaults applies each fault to the second checkpoint's
// push: the first one is a whole push, and the second sends the frames
// of somePages and the seal. In the row names a chunk is a page frame
// and the last chunk is the seal.
func TestPushStreamFaults(t *testing.T) {
	cases := []struct {
		name string
		// fault builds the rewrite applied to episode 2's frames and seal.
		fault func() func(m *wire.Msg, payload []byte) [][]byte
		// resent says whether the fault must cost a second, whole push;
		// retried whether it costs the seal a timer-driven retransmission.
		resent, retried bool
	}{
		{"drop a middle chunk", func() func(*wire.Msg, []byte) [][]byte {
			n := 0
			return func(m *wire.Msg, p []byte) [][]byte {
				if m.Kind == wire.KSnapPush {
					if n++; n == 3 {
						return nil
					}
				}
				return [][]byte{p}
			}
		}, true, false},
		{"duplicate a chunk", func() func(*wire.Msg, []byte) [][]byte {
			n := 0
			return func(m *wire.Msg, p []byte) [][]byte {
				if m.Kind == wire.KSnapPush {
					if n++; n == 3 {
						return [][]byte{p, append([]byte(nil), p...)}
					}
				}
				return [][]byte{p}
			}
		}, false, false},
		{"swap two chunks", func() func(*wire.Msg, []byte) [][]byte {
			n := 0
			var kept []byte
			return func(m *wire.Msg, p []byte) [][]byte {
				if m.Kind == wire.KSnapPush {
					switch n++; n {
					case 2:
						kept = p
						return nil
					case 3:
						return [][]byte{p, kept}
					}
				}
				return [][]byte{p}
			}
		}, false, false},
		{"last chunk overtakes the one before it", func() func(*wire.Msg, []byte) [][]byte {
			n := 0
			var kept []byte
			return func(m *wire.Msg, p []byte) [][]byte {
				switch {
				case m.Kind == wire.KSnapPush:
					if n++; n == len(somePages) {
						kept = p
						return nil
					}
				case kept != nil:
					out := [][]byte{p, kept}
					kept = nil
					return out
				}
				return [][]byte{p}
			}
		}, true, false},
		{"drop the seal", func() func(*wire.Msg, []byte) [][]byte {
			dropped := false
			return func(m *wire.Msg, p []byte) [][]byte {
				if m.Kind == wire.KSnapSeal && !dropped {
					dropped = true
					return nil
				}
				return [][]byte{p}
			}
		}, false, true},
		{"duplicate the seal", func() func(*wire.Msg, []byte) [][]byte {
			return func(m *wire.Msg, p []byte) [][]byte {
				if m.Kind == wire.KSnapSeal {
					return [][]byte{p, append([]byte(nil), p...)}
				}
				return [][]byte{p}
			}
		}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes, stores, tap := startPair(t)
			fault := tc.fault()
			tap.fault = func(m *wire.Msg, p []byte) [][]byte {
				if m.Episode != 2 {
					return [][]byte{p}
				}
				return fault(m, p)
			}
			runWorkers(t, checkpointWith(nodes[0], false, 0, allPages(), somePages),
				checkpointWith(nodes[1], true, 0xAD000000, allPages(), somePages))
			sameSnapshot(t, stores[0], stores[1], 1, 1, 2)

			want := len(somePages)
			if tc.resent {
				want += pushPages
			}
			if frames, _ := tap.sent(0, 2); frames != want {
				t.Errorf("episode 2 sent %d frames, want %d", frames, want)
			}
			if retries := nodes[1].Stats().RPCRetries; (retries > 0) != tc.retried {
				t.Errorf("%d timer-driven retransmissions, want them %v: a redirect restarts the push at once", retries, tc.retried)
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

	rollBack(t, nodes, nodes[0])
	runWorkers(t, checkpointWith(nodes[0], false, 0), checkpointWith(nodes[1], true, 0xBBBB0000))
	sameSnapshot(t, stores[0], stores[1], 1)
	if got, _ := stores[0].GetNode(1, 1); got == abandoned {
		t.Error("the manager still holds the replica pushed before the rollback")
	}
}

// rollBack rolls every node back to the initial state the way the
// supervisor does: a new epoch everywhere, the manager reset at leader,
// then every node reset.
func rollBack(t *testing.T, nodes []*node.Node, leader *node.Node) {
	t.Helper()
	for _, nd := range nodes {
		nd.SetEpoch(1)
	}
	if err := leader.ResetManager(0, -1); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		nd.ResetToCheckpoint(nil)
		nd.BeginReplay(0)
	}
}

// TestPushStreamLeaderChange kills the quorum's leader while a
// non-voting node's whole push to it, seal included, is held in the
// network. The frames die with the old leader, the seal's RPC finds its
// successor, which has none of the frames and says so, and the push
// goes out again: the successor ends up with the replica.
func TestPushStreamLeaderChange(t *testing.T) {
	const nn, pusher = 4, 3
	trs := transport.NewInprocNetwork(nn)
	gate := newPushTap(t, trs[pusher])
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
		// The whole push, seal included, is in the network.
		waitFor(t, "the pusher's push to be held", nil, func() bool {
			_, seals := gate.sent(-1, 1)
			return seals > 0
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

// voterCluster starts five nodes: nodes 0-3 vote, node 4 homes every
// page and pushes its snapshots through a pushTap.
func voterCluster(t *testing.T) (nodes []*node.Node, stores []ckpt.Store, tap *pushTap) {
	const nn, pusher = 5, 4
	trs := transport.NewInprocNetwork(nn)
	tap = newPushTap(t, trs[pusher])
	stores = make([]ckpt.Store, nn)
	nodes = make([]*node.Node, nn)
	for i := range nodes {
		stores[i] = ckpt.NewMemStore()
		cfg := pushCfg(pusher, stores[i])
		cfg.RPCTimeout = 20 * time.Second
		cfg.Recover.Consensus = consensus.NewStable()
		cfg.Recover.Seed = int64(i + 1)
		cfg.Recover.Voters = []int{0, 1, 2, 3}
		var tr transport.Transport = trs[i]
		if i == pusher {
			tr = tap
		}
		nodes[i] = node.New(tr, cfg)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() { stopNodes(nodes, trs) })
	return nodes, stores, tap
}

// leaderOf waits for a settled leader among the voters and returns it.
func leaderOf(t *testing.T, nodes []*node.Node, not int) int {
	t.Helper()
	ldr := -1
	waitFor(t, "a leader to be elected", nil, func() bool {
		for i := 0; i < 4; i++ {
			if _, is := nodes[i].ConsensusLeader(); is && i != not {
				ldr = i
				return true
			}
		}
		return false
	})
	if ldr < 0 {
		t.Fatal("no leader")
	}
	return ldr
}

// demote removes the leader from the voters, which makes it step down,
// and returns its successor.
func demote(t *testing.T, nodes []*node.Node, old int) int {
	t.Helper()
	if err := nodes[old].ChangeMembership(false, old); err != nil {
		t.Fatal(err)
	}
	return leaderOf(t, nodes, old)
}

// wholePush checks that episode 2 went out as the changed pages and then
// every page again, the latter to the successor: the successor answered
// the first seal with a redirect.
func wholePush(t *testing.T, tap *pushTap, succ int) {
	t.Helper()
	all, _ := tap.sent(-1, 2)
	got, _ := tap.sent(succ, 2)
	if all != len(somePages)+pushPages || got < pushPages {
		t.Errorf("episode 2 sent %d frames, %d to the successor; want %d, all %d pages to the successor",
			all, got, len(somePages)+pushPages, pushPages)
	}
}

// TestPushAfterLeaderChange moves the leadership between the pusher's
// first and second checkpoints. The successor stored no replica of the
// first, so the second push goes to it whole.
func TestPushAfterLeaderChange(t *testing.T) {
	nodes, stores, tap := voterCluster(t)
	bodies := func(r []int) []func() {
		b := make([]func(), len(nodes))
		for i, nd := range nodes {
			b[i] = checkpointWith(nd, i == 4, 0xAE000000+uint64(len(r)), r)
		}
		return b
	}
	runWorkers(t, bodies(allPages())...)
	old := leaderOf(t, nodes, -1)
	sameSnapshot(t, stores[old], stores[4], 4, 1)
	succ := demote(t, nodes, old)
	runWorkers(t, bodies(somePages)...)
	sameSnapshot(t, stores[succ], stores[4], 4, 2)
	wholePush(t, tap, succ)
}

// TestPushIgnoresStaleBase is the rollback hazard one step further.
// Checkpoint 1 is taken, the cluster rolls back and takes checkpoint 1
// again with other contents, the leadership moves, and checkpoint 2
// rewrites a few pages over checkpoint 1. The successor's store holds
// the replica of the abandoned checkpoint 1, which it would have stored
// had it led then (it is put there: which voter wins an election is up
// to the timers). Its episode number is the seal's base, but the
// successor stored it in another epoch: it must not build on it, and
// gets the whole push instead.
func TestPushIgnoresStaleBase(t *testing.T) {
	nodes, stores, tap := voterCluster(t)
	bodies := func(val uint64, r ...[]int) []func() {
		b := make([]func(), len(nodes))
		for i, nd := range nodes {
			b[i] = checkpointWith(nd, i == 4, val, r...)
		}
		return b
	}
	runWorkers(t, bodies(0xAF000000)...)
	old := leaderOf(t, nodes, -1)
	abandoned, err := stores[old].GetNode(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	rollBack(t, nodes, nodes[old])
	runWorkers(t, bodies(0xBF000000)...)
	sameSnapshot(t, stores[old], stores[4], 4, 1)
	for i := 0; i < 4; i++ {
		if i != old {
			if err := stores[i].PutNode(abandoned); err != nil {
				t.Fatal(err)
			}
		}
	}
	succ := demote(t, nodes, old)
	runWorkers(t, bodies(0xCF000000, somePages)...)
	sameSnapshot(t, stores[succ], stores[4], 4, 2)
	wholePush(t, tap, succ)
}
