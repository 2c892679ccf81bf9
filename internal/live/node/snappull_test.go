package node_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// These tests pin a rejoiner's page pull (JoinCluster / pullSnapshot /
// joinReq / snapReq): a node that lost its store with its engine gets
// the vector time of the leader's replica on its join grant, then asks
// for each page it homes with an ordinary manager RPC, and the leader
// answers each with a page reply from the replica it granted from. A
// transport wrapper counts, drops, duplicates and rewrites the pull's
// frames, or the leadership moves mid-pull; each time the rejoined
// node's store must end up with the leader's replica byte for byte, or
// the rejoin must fail with an error.

// frameTap wraps a transport. It counts the join requests, page
// requests and page replies it sends, per destination, and lets a
// test's fault function rewrite them (none drops one, two duplicate
// it).
type frameTap struct {
	transport.Transport
	t     *testing.T
	mu    sync.Mutex
	sent  map[[2]int]int                             // (kind, to)
	fault func(m *wire.Msg, payload []byte) [][]byte // called under mu
}

func newFrameTap(t *testing.T, tr transport.Transport) *frameTap {
	return &frameTap{Transport: tr, t: t, sent: map[[2]int]int{}}
}

func (p *frameTap) Send(to int, payload []byte) error {
	if len(payload) < 2 {
		return p.Transport.Send(to, payload)
	}
	switch k := wire.Kind(payload[1]); k {
	case wire.KJoinReq, wire.KSnapReq, wire.KPageReply:
	default:
		return p.Transport.Send(to, payload)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		p.t.Errorf("undecodable %v frame: %v", wire.Kind(payload[1]), err)
		return p.Transport.Send(to, payload)
	}
	p.mu.Lock()
	p.sent[[2]int{int(m.Kind), to}]++
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

// count returns the frames of kind sent to node to (-1: to any node).
func (p *frameTap) count(kind wire.Kind, to int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for k, c := range p.sent {
		if k[0] == int(kind) && (to < 0 || k[1] == to) {
			n += c
		}
	}
	return n
}

// nthFault rewrites the n-th frame of kind with rewrite (nil: drops it)
// and passes every other frame through.
func nthFault(kind wire.Kind, n int, rewrite func(m *wire.Msg) *wire.Msg) func(*wire.Msg, []byte) [][]byte {
	seen := 0
	return func(m *wire.Msg, p []byte) [][]byte {
		if m.Kind != kind {
			return [][]byte{p}
		}
		if seen++; seen != n {
			return [][]byte{p}
		}
		if rewrite == nil {
			return nil
		}
		return [][]byte{wire.Encode(rewrite(m))}
	}
}

// pullCluster starts nn nodes on an in-process network and takes
// checkpoint 1; the last node homes every page and pushes its
// snapshots. voters nil is the one-voter cluster of two nodes. tap, if
// set, wraps node i's transport.
func pullCluster(t *testing.T, nn int, voters []int, tap map[int]*frameTap) (nodes []*node.Node, stores []ckpt.Store, nw *transport.InprocNet) {
	pusher := nn - 1
	nw = transport.NewInprocNet(nn)
	trs := nw.Transports()
	stores = make([]ckpt.Store, nn)
	nodes = make([]*node.Node, nn)
	for i := range nodes {
		stores[i] = ckpt.NewMemStore()
		cfg := pushCfg(pusher, stores[i])
		if voters != nil {
			cfg.RPCTimeout = 20 * time.Second
			cfg.Recover.Consensus = consensus.NewStable()
			cfg.Recover.Seed = int64(i + 1)
			cfg.Recover.Voters = voters
		}
		tr := trs[i]
		if tp := tap[i]; tp != nil {
			tp.Transport = tr
			tr = tp
		}
		nodes[i] = node.New(tr, cfg)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		nw.Close()
		for _, nd := range nodes {
			nd.Wait()
		}
	})
	bodies := make([]func(), nn)
	for i, nd := range nodes {
		bodies[i] = checkpointOnce(nd, i == pusher)
	}
	runWorkers(t, bodies...)
	return nodes, stores, nw
}

// loseAndRejoin kills the pusher with its store the way the supervisor
// does — a new epoch at the survivors, the manager reset to checkpoint
// 1 at the leader — and starts its fresh incarnation, with an empty
// store, on a tapped transport. The caller runs its JoinCluster.
func loseAndRejoin(t *testing.T, nodes []*node.Node, nw *transport.InprocNet, leader int) (fresh *node.Node, store ckpt.Store, tap *frameTap) {
	t.Helper()
	victim := len(nodes) - 1
	nodes[victim].Close()
	nodes[victim].Wait()
	for i, nd := range nodes {
		if i != victim {
			nd.SetEpoch(1)
		}
	}
	if err := nodes[leader].ResetManager(1, victim); err != nil {
		t.Fatal(err)
	}
	tr, err := nw.Rejoin(victim)
	if err != nil {
		t.Fatal(err)
	}
	tap = newFrameTap(t, tr)
	store = ckpt.NewMemStore()
	cfg := pushCfg(victim, store)
	cfg.Recover.Epoch, cfg.Recover.Incarnation, cfg.Recover.LeaderHint = 1, 1, leader
	fresh = node.New(tap, cfg)
	fresh.Start()
	nodes[victim] = fresh // stopped by the cluster's cleanup
	return fresh, store, tap
}

// TestPullFaults rejoins a node whose store is gone: it must pull every
// page it homes once from the one-voter leader and end up with the
// leader's replica byte for byte. A page reply the network drops costs
// the request a retransmission, and a duplicated request, like that
// retransmission, is answered from the leader's reply cache.
func TestPullFaults(t *testing.T) {
	cases := []struct {
		name string
		// leader and joiner fault the frames each side sends.
		leader, joiner func(*wire.Msg, []byte) [][]byte
		// retried says the joiner must retransmit a request; dups that
		// the leader must see a duplicate.
		retried, dups bool
	}{
		{name: "clean"},
		{name: "drop a page reply", leader: nthFault(wire.KPageReply, 3, nil), retried: true, dups: true},
		{name: "duplicate a snap-req", joiner: func() func(*wire.Msg, []byte) [][]byte {
			n := 0
			return func(m *wire.Msg, p []byte) [][]byte {
				if m.Kind == wire.KSnapReq {
					if n++; n == 3 {
						return [][]byte{p, append([]byte(nil), p...)}
					}
				}
				return [][]byte{p}
			}
		}(), dups: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ltap := newFrameTap(t, nil)
			nodes, stores, nw := pullCluster(t, 2, nil, map[int]*frameTap{0: ltap})
			fresh, store, tap := loseAndRejoin(t, nodes, nw, 0)
			ltap.mu.Lock()
			ltap.fault = tc.leader
			ltap.mu.Unlock()
			tap.mu.Lock()
			tap.fault = tc.joiner
			tap.mu.Unlock()
			dups0 := nodes[0].Stats().DupRequests
			if err := fresh.JoinCluster(); err != nil {
				t.Fatal(err)
			}
			sameSnapshot(t, stores[0], store, 1)

			// Every page is asked for once, plus the retransmissions the
			// joiner counts (its join and resume requests' among them: a
			// slow host can cost a clean network some).
			reqs, retries := tap.count(wire.KSnapReq, 0), int(fresh.Stats().RPCRetries)
			if reqs < pushPages || reqs > pushPages+retries {
				t.Errorf("%d snap-req frames with %d retransmissions, want one per page (%d) plus retransmissions", reqs, retries, pushPages)
			}
			if tc.retried && retries == 0 {
				t.Error("the joiner never retransmitted a request whose reply was lost")
			}
			if dups := nodes[0].Stats().DupRequests - dups0; tc.dups && dups == 0 {
				t.Error("the leader saw no duplicate request")
			}
			if replies := ltap.count(wire.KPageReply, 1); replies < pushPages {
				t.Errorf("%d page replies, want at least one per page (%d)", replies, pushPages)
			}
		})
	}
}

// TestPullRejectsBadReply rewrites one page reply of the pull: a reply
// that does not fit the page asked for fails the rejoin with an error
// naming the pull, and nothing reaches the joiner's store.
func TestPullRejectsBadReply(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rewrite func(m *wire.Msg) *wire.Msg
	}{
		{"wrong page", func(m *wire.Msg) *wire.Msg { m.Page++; return m }},
		{"short data", func(m *wire.Msg) *wire.Msg { m.Data = m.Data[:len(m.Data)-1]; return m }},
		{"wrong VT length", func(m *wire.Msg) *wire.Msg { m.VT = append(m.VT, 0); return m }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ltap := newFrameTap(t, nil)
			nodes, _, nw := pullCluster(t, 2, nil, map[int]*frameTap{0: ltap})
			fresh, store, _ := loseAndRejoin(t, nodes, nw, 0)
			ltap.mu.Lock()
			ltap.fault = nthFault(wire.KPageReply, 3, tc.rewrite)
			ltap.mu.Unlock()
			err := fresh.JoinCluster()
			if err == nil || !strings.Contains(err.Error(), "pulling snapshot 1") {
				t.Fatalf("rejoin returned %v, want the pull's error", err)
			}
			if _, gerr := store.GetNode(1, 1); gerr == nil {
				t.Error("a rejected pull stored a snapshot")
			}
		})
	}
}

// TestPullReplicaDroppedAtResume: the leader keeps the replica it
// granted a rejoin from only until the joiner's resume commits.
func TestPullReplicaDroppedAtResume(t *testing.T) {
	ltap := newFrameTap(t, nil)
	nodes, stores, nw := pullCluster(t, 2, nil, map[int]*frameTap{0: ltap})
	fresh, store, tap := loseAndRejoin(t, nodes, nw, 0)
	held := false
	tap.mu.Lock()
	tap.fault = func(m *wire.Msg, p []byte) [][]byte {
		if m.Kind == wire.KSnapReq && !held {
			held = nodes[0].JoinReplica(1)
		}
		return [][]byte{p}
	}
	tap.mu.Unlock()
	if err := fresh.JoinCluster(); err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, stores[0], store, 1)
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if !held {
		t.Error("the leader held no replica for the joiner during its pull")
	}
	if nodes[0].JoinReplica(1) {
		t.Error("the leader still holds the joiner's replica after its resume")
	}
}

// TestPullLeaderChange moves the leadership in the middle of a pull.
// The rest of the pull reaches a successor that granted nothing and
// redirects the joiner to itself; the joiner re-runs its handshake
// there and pulls every page from it. Every voter's store holds the
// replica, as a successor's would have had it led when the checkpoint
// was taken (which voter wins an election is up to the timers).
func TestPullLeaderChange(t *testing.T) {
	const nn = 5
	nodes, stores, nw := pullCluster(t, nn, []int{0, 1, 2, 3}, nil)
	old := leaderOf(t, nodes, -1)
	replica, err := stores[old].GetNode(1, nn-1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nn-1; i++ {
		if err := stores[i].PutNode(replica); err != nil {
			t.Fatal(err)
		}
	}
	fresh, store, tap := loseAndRejoin(t, nodes, nw, old)

	// The fifth page request waits in the joiner's transport until the
	// leadership moved.
	reached, moved := make(chan struct{}), make(chan struct{})
	n := 0
	tap.mu.Lock()
	tap.fault = func(m *wire.Msg, p []byte) [][]byte {
		if m.Kind == wire.KSnapReq {
			if n++; n == 5 {
				close(reached)
				<-moved
			}
		}
		return [][]byte{p}
	}
	tap.mu.Unlock()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(moved)
		select {
		case <-reached:
		case <-stop: // the rejoin ended before its fifth page request
			return
		}
		// Removing the leader from the voters makes it step down.
		if err := nodes[old].ChangeMembership(false, old); err != nil {
			t.Error(err)
			return
		}
		waitFor(t, "a successor to be elected", nil, func() bool {
			for i := 0; i < nn-1; i++ {
				if _, is := nodes[i].ConsensusLeader(); is && i != old {
					return true
				}
			}
			return false
		})
	}()
	err = fresh.JoinCluster()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	succ := leaderOf(t, nodes, old)
	sameSnapshot(t, stores[succ], store, nn-1)
	if joins := tap.count(wire.KJoinReq, -1); joins < 2 {
		t.Errorf("%d join requests, want the handshake re-run at the successor", joins)
	}
	if reqs := tap.count(wire.KSnapReq, succ); reqs < pushPages {
		t.Errorf("%d snap-req frames to the successor %d, want every page (%d)", reqs, succ, pushPages)
	}
}
