package node

import (
	"math"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/codec"
	"lrcdsm/internal/live/consensus"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// TestInlineStateFitsOneFrame pins the size of what every append
// carries: the whole manager state at 64 nodes, all of them voters,
// fits 1 KiB, and so does the append frame carrying it. The blob is
// built by the consensus layout (voters, then the image; pinned by its
// TestGoldenBytes).
func TestInlineStateFitsOneFrame(t *testing.T) {
	const nn = 64
	app := newMstate(nn).encodeState()
	voters := make([]int32, nn)
	for i := range voters {
		voters[i] = int32(i)
	}
	var w codec.Writer
	w.I32s(voters)
	w.Bytes(app)
	if len(w.B) > 1<<10 {
		t.Errorf("a %d-node state is %d bytes inline, want <= 1 KiB", nn, len(w.B))
	}
	frame := wire.Encode(&wire.Msg{
		Kind: wire.KAppend, From: nn - 1, Term: math.MaxInt64, LogIndex: math.MaxInt64, Data: w.B,
	})
	if len(frame) > 1<<10+64 {
		t.Errorf("an append carrying the %d-node state is %d bytes", nn, len(frame))
	}
	t.Logf("state %d bytes, append frame %d bytes", len(w.B), len(frame))
}

// linkCut drops every frame between the node pairs it names, in both
// directions.
type linkCut struct {
	mu  sync.Mutex
	cut map[[2]int]bool
}

func (c *linkCut) set(a, b int, on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut[[2]int{a, b}], c.cut[[2]int{b, a}] = on, on
}

func (c *linkCut) blocked(a, b int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut[[2]int{a, b}]
}

type cutTransport struct {
	transport.Transport
	links *linkCut
}

func (t *cutTransport) Send(to int, payload []byte) error {
	if t.links.blocked(t.Self(), to) {
		return nil
	}
	return t.Transport.Send(to, payload)
}

// TestInstallCrossesReset: a manager replica that led and served a
// client, fell behind while another leader committed a rollback (opReset)
// and the client's rejoin (opResume), and was caught up by installing a
// leader's slot, then elected again, answers the client's next
// incarnation exactly like a replica that applied the two commands: the
// rollback restarted the client's tokens, so the replica must have
// forgotten the old ones, or it drops the rejoin as a retransmission and
// the client never hears a grant.
//
// Voters are 0, 2 and 3; node 1 is a raw transport standing in for the
// client, a non-voter. Node 0 leads from bootstrap and serves the
// client's token 100. In the replayed row node 0 commits the rollback
// and rejoin itself. In the installed row node 0 is cut off, a new
// leader L among {2, 3} commits them, and node 0 is healed towards the
// other voter F alone: F is elected over node 0's older slot and
// catches node 0 up with its own; then F is cut off and node 0 healed
// towards L, whose slot is older than F's, so node 0 is elected. Either
// way node 0 then answers the client's join request with token 1.
func TestInstallCrossesReset(t *testing.T) {
	for _, installed := range []bool{false, true} {
		name := "replayed"
		if installed {
			name = "installed"
		}
		t.Run(name, func(t *testing.T) { installCrossesReset(t, installed) })
	}
}

func installCrossesReset(t *testing.T, installed bool) {
	const nodes, client = 4, 1
	links := &linkCut{cut: map[[2]int]bool{}}
	trs := transport.NewInprocNetwork(nodes)
	ns := make([]*Node, nodes)
	for i := range ns {
		if i == client {
			continue
		}
		ns[i] = New(&cutTransport{Transport: trs[i], links: links}, Config{
			PageSize: 256, NPages: 1, Homes: []int32{0},
			NLocks: 1, NBars: 1, Protocol: core.LI, HeartbeatTimeout: -1,
			Recover: RecoverConfig{Store: ckpt.NewMemStore(), Voters: []int{0, 2, 3}},
		})
		ns[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range ns {
			if nd != nil {
				nd.Close()
			}
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range ns {
			if nd != nil {
				waitClosed(t, nd)
			}
		}
	})

	// The client's replies; the appends every leader sends it are not.
	// A reply that finds the buffer full — stale answers to resent
	// requests — is dropped so the reader never blocks; ask resends
	// until it reads its answer.
	replies := make(chan *wire.Msg, 64)
	go func() {
		for {
			f, err := trs[client].Recv()
			if err != nil {
				return
			}
			if m, err := wire.Decode(f.Payload); err == nil && m.Kind != wire.KAppend {
				select {
				case replies <- m:
				default:
				}
			}
		}
	}()
	// ask sends the client's request to node 0 until node 0 answers it
	// with kind want; a redirect (node 0 not leading yet) is retried.
	ask := func(m *wire.Msg, want wire.Kind) {
		t.Helper()
		m.From = client
		payload := wire.Encode(m)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			trs[client].Send(0, payload)
			select {
			case r := <-replies:
				if r.Token == m.Token && r.Kind == want {
					return
				}
			case <-time.After(50 * time.Millisecond):
			}
		}
		t.Fatalf("node 0 never answered %v token %d with %v", m.Kind, m.Token, want)
	}
	// propose commits cmd on node ld's replica.
	propose := func(ld int, cmd []byte) {
		t.Helper()
		errc := make(chan error, 1)
		ns[ld].mgr.rep.Propose(cmd, func(err error) { errc <- err })
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("propose on %d: %v", ld, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("proposal on %d never resolved", ld)
		}
	}
	// leaderAmong waits for one of the nodes to lead.
	leaderAmong := func(cands ...int) int {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			for _, c := range cands {
				if ns[c].mgr.isLeader() {
					return c
				}
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("none of %v was elected", cands)
		return -1
	}

	leaderAmong(0)
	ask(&wire.Msg{Kind: wire.KCkptDone, Token: 100, Episode: 1}, wire.KAck)
	reset, resume := encodeReset(client, 0), encodeResume(client)
	if !installed {
		propose(0, reset)
		propose(0, resume)
	} else {
		for _, p := range []int{2, 3} {
			links.set(0, p, true)
		}
		ld := leaderAmong(2, 3)
		propose(ld, reset)
		propose(ld, resume)
		f := 5 - ld // the other voter
		for _, p := range []int{0, f} {
			links.set(ld, p, true)
		}
		links.set(0, f, false)
		leaderAmong(f)
		// F's append carries its slot to node 0.
		slot := func(i int) *consensus.Stable { return ns[i].cfg.Recover.Consensus }
		for deadline := time.Now().Add(10 * time.Second); slot(0).Version() != slot(f).Version(); {
			if time.Now().After(deadline) {
				t.Fatal("node 0 was never caught up by an install")
			}
			time.Sleep(time.Millisecond)
		}
		links.set(0, f, true)
		links.set(0, ld, false)
		leaderAmong(0)
	}
	ask(&wire.Msg{Kind: wire.KJoinReq, Token: 1}, wire.KJoinGrant)
	ask(&wire.Msg{Kind: wire.KResume, Token: 2}, wire.KAck)
}
