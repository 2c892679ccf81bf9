package node

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lrcdsm/internal/live/consensus"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/wire"
)

// manager is the recovery coordinator. Locks, barriers and the interval
// log are distributed across the cluster (see sync.go); what remains
// centralized is the membership-flavored machinery that genuinely needs
// a single point of authority: checkpoint confirmation tracking,
// snapshot replication, the crash/rejoin handshake, and the liveness
// verdicts.
//
// Every node runs a manager replica, and the authoritative state lives
// in a replicated state machine (mstate) whose state a one-slot
// consensus register replicates (internal/live/consensus): the elected
// leader serves requests by proposing the corresponding command, which
// it applies at once, and replies only after the version carrying it
// commits; followers install the leader's state and answer every
// manager request with KNotLeader and the current leader hint; and a
// leader crash triggers an election instead of an abort. On three or more nodes every node votes (unless
// RecoverConfig.Voters says otherwise); below three, node 0 alone forms
// the voting group, so its commits need no round trip and its crash is
// final.
//
// Requests are de-duplicated per client before any state changes: a
// node's worker issues manager RPCs strictly sequentially with strictly
// increasing tokens, so a request whose token is not newer than the
// client's last is a retransmission — the cached reply is re-sent (the
// original was lost) or, while the original is still pending, the
// duplicate is simply dropped (snapshot page frames are not requests,
// see snapPage). The dedup tables and the push slots (page pushes, and
// the replicas joiners pull) are leader-local (guarded by cmu, not
// replicated): every command is idempotent and a client whose leader
// died retries at the new one with fresh tokens, so serving state never
// needs to agree across replicas.
type manager struct {
	n  *Node
	nn int

	// st is the replicated state machine; rep the consensus replica
	// driving it.
	st  *mstate
	rep *consensus.Rep

	// Leader-local serving state, guarded by cmu (the dispatcher serves
	// requests while commit callbacks reply from the consensus
	// goroutine). clients is the request de-duplication state, keyed by
	// (origin node, token lane) — each lane issues tokens from its own
	// monotonic sequence, so a supervisor RPC on the conf lane cannot
	// shadow a worker's lane-0 tokens — and LRU-bounded by
	// clientCacheCap. pushes[w] is node w's push slot, filled in term
	// pushTerm: its page push and the replica it pulls while it rejoins.
	// suspect[w] marks a peer this leader already reported down, so one
	// silence fires one verdict.
	cmu        sync.Mutex
	clients    map[clientKey]*mclient
	clientSeen []clientKey
	pushes     []pushSlot
	pushTerm   int64
	suspect    []bool
}

// clientKey names one dedup stream: one token lane of one node.
type clientKey struct {
	from int32
	lane int64
}

// pushSlot is one node's snapshot traffic at this leader, in both
// directions. base is the newest replica of its snapshot this leader
// stored since the last rollback, in this term (nil: none), the only
// snapshot a seal may build on: the store can hold a replica of the
// same episode from before a rollback. frames holds the page images
// pushed for episode, until its seal. join is the replica this leader
// granted the node's rejoin from, served a page per KSnapReq until its
// KResume commits (nil: none).
type pushSlot struct {
	base    *ckpt.NodeSnapshot
	episode int64
	frames  map[int32]ckpt.PageImage
	join    *ckpt.NodeSnapshot
}

// replyCacheCap bounds each client's cached-reply window. A worker has
// at most one manager RPC outstanding, so one slot would suffice for
// liveness; the window absorbs deep retransmission storms re-asking for
// recently answered tokens without letting a hot client grow the cache
// without bound.
const replyCacheCap = 32

// clientCacheCap bounds the dedup table across (node, lane) streams.
// It follows the reply-cache discipline: oldest-first eviction, and a
// client whose dedup entry aged out simply starts a fresh token window.
const clientCacheCap = 256

// mclient is one node's request de-duplication state: the newest token
// seen from it and a bounded cache of recent replies, keyed by token
// (a pending request has no entry yet). The oldest token is evicted
// once the cache exceeds replyCacheCap.
type mclient struct {
	lastTok int64
	replies map[int64]*wire.Msg
	order   []int64 // cached tokens, oldest first
}

// cache keeps a copy of m, not m itself: the caller goes on to send m,
// and send stamps the envelope (From, Epoch) in place — on a worker or
// the consensus apply goroutine — while the dispatcher may already be
// re-serving the cached reply to a duplicated request. The copy is only
// ever sent by the dispatcher.
func (c *mclient) cache(m *wire.Msg) {
	if c.replies == nil {
		c.replies = make(map[int64]*wire.Msg)
	}
	if _, ok := c.replies[m.Token]; !ok {
		c.order = append(c.order, m.Token)
		if len(c.order) > replyCacheCap {
			delete(c.replies, c.order[0])
			c.order = c.order[1:]
		}
	}
	cp := *m
	//dsmlint:ignore vtalias cached replies are immutable after construction: they are only re-encoded for retransmission, never written
	c.replies[m.Token] = &cp
}

func newManager(n *Node) *manager {
	return &manager{
		n:       n,
		nn:      n.nn,
		st:      newMstate(n.nn),
		clients: map[clientKey]*mclient{},
		pushes:  make([]pushSlot, n.nn),
		suspect: make([]bool, n.nn),
	}
}

// client returns (creating if needed) the dedup state for the token's
// (origin, lane) stream, evicting the least-recently-created stream
// past clientCacheCap. Caller holds cmu.
func (g *manager) client(from int32, tok int64) *mclient {
	k := clientKey{from: from, lane: tok >> laneShift}
	c := g.clients[k]
	if c == nil {
		c = &mclient{}
		g.clients[k] = c
		g.clientSeen = append(g.clientSeen, k)
		if len(g.clientSeen) > clientCacheCap {
			delete(g.clients, g.clientSeen[0])
			g.clientSeen = g.clientSeen[1:]
		}
	}
	return c
}

// isLeader reports whether this replica currently serves manager
// requests.
func (g *manager) isLeader() bool { return g.rep.Leader().IsLeader }

func (g *manager) handle(m *wire.Msg) {
	if !g.isLeader() {
		// Token 0 is an unacknowledged page frame: nobody waits for its
		// redirect, the push's seal collects it.
		if m.Token != 0 {
			g.redirect(m)
		}
		return
	}
	if m.Kind == wire.KSnapPush {
		g.snapPage(m)
		return
	}
	if g.dropDup(m) {
		return
	}
	switch m.Kind {
	case wire.KJoinReq:
		g.joinReq(m)
	case wire.KSnapReq:
		g.snapReq(m)
	case wire.KSnapSeal:
		g.snapSeal(m)
	case wire.KResume:
		// A rejoined node is live again: its recovery ends and liveness
		// re-arms for it on every replica.
		g.ackOnCommit(m, encodeResume(m.From))
	case wire.KCkptDone:
		// A node durably stored its snapshot for an episode.
		g.ackOnCommit(m, encodeCkptDone(m.From, m.Episode))
	case wire.KConfChange:
		g.confChange(m)
	}
}

// dropDup filters retransmitted requests before they can mutate manager
// state, re-serving the cached reply when the original was already
// answered. It reports true when the message was a duplicate.
func (g *manager) dropDup(m *wire.Msg) bool {
	g.cmu.Lock()
	c := g.client(m.From, m.Token)
	if m.Token > c.lastTok {
		c.lastTok = m.Token
		g.cmu.Unlock()
		return false
	}
	r, ok := c.replies[m.Token]
	g.cmu.Unlock()
	atomic.AddInt64(&g.n.stats.DupRequests, 1)
	if ok {
		g.n.send(int(m.From), r)
	}
	return true
}

// reply sends a response to a client and caches it for retransmitted
// requests (bounded per client by replyCacheCap).
func (g *manager) reply(to int32, m *wire.Msg) {
	g.cmu.Lock()
	c := g.client(to, m.Token)
	if m.Token <= c.lastTok {
		c.cache(m)
	}
	g.cmu.Unlock()
	g.n.send(int(to), m)
}

// redirect answers a request with KNotLeader and this replica's leader
// hint: at a non-leader, so the client re-resolves the leader; at the
// leader, when the request's leader-local serving state straddled a
// leader change (a rejoin granted elsewhere), so the client restarts
// the whole exchange here from a clean slate.
func (g *manager) redirect(m *wire.Msg) {
	info := g.rep.Leader()
	g.n.send(int(m.From), &wire.Msg{
		Kind: wire.KNotLeader, Token: m.Token, Term: info.Term, Leader: int32(info.Leader),
	})
}

// ---- command plumbing ----

// applyCmd decodes and applies one command, then re-arms leader-local
// serving state on reset/resume. Runs on the consensus goroutine of the
// leader, as the leader admits the command: the leader's state runs
// ahead of its commit (DESIGN.md §16.1 argues each read of it).
func (g *manager) applyCmd(cmd []byte) error {
	c, err := decodeCmd(cmd)
	if err != nil {
		return err
	}
	if err := g.st.apply(c); err != nil {
		return err
	}
	switch c.op {
	case opResume:
		w := int(c.node)
		g.cmu.Lock()
		g.slot(w).join = nil
		g.cmu.Unlock()
		g.rep.Heard(w)
	case opReset:
		g.dropServing()
		for w := 0; w < g.nn; w++ {
			g.rep.Heard(w)
		}
	}
	return nil
}

// dropServing clears the leader-local serving state: a rollback
// restarts every node's tokens and episodes, so none of it holds.
func (g *manager) dropServing() {
	g.cmu.Lock()
	defer g.cmu.Unlock()
	g.clients = map[clientKey]*mclient{}
	g.clientSeen = nil
	g.pushes = make([]pushSlot, g.nn) // a seal under way writes to the old slots
	for w := range g.suspect {
		g.suspect[w] = false
	}
}

// installState replaces the replicated state with a leader's image (the
// consensus InstallState hook: a follower installs every version it
// accepts). The image cannot say whether the commands it stands in for
// held a reset or a resume, so the serving state goes as at a reset,
// which covers a resume; a replica that never led has none either. The peer stamps need no refresh (DESIGN.md §16.1).
func (g *manager) installState(app []byte) error {
	if err := g.st.restoreState(app); err != nil {
		return err
	}
	g.dropServing()
	return nil
}

// lostLeadership reports a proposal that died with the leadership
// (deposed, stopped, or a full proposal queue). Its client is not
// answered: the retransmission re-resolves the leader and re-proposes.
func lostLeadership(err error) bool {
	return errors.Is(err, consensus.ErrNotLeader) || errors.Is(err, consensus.ErrDeposed) ||
		errors.Is(err, consensus.ErrStopped) || errors.Is(err, consensus.ErrBusy)
}

// commitReply builds a proposal callback that answers the client once
// the command commits.
func (g *manager) commitReply(from int32, build func() *wire.Msg) func(error) {
	return func(err error) {
		if err != nil {
			if !lostLeadership(err) {
				g.abort(err)
			}
			return
		}
		g.reply(from, build())
	}
}

// ackOnCommit commits cmd and acknowledges request m once it has.
func (g *manager) ackOnCommit(m *wire.Msg, cmd []byte) {
	tok := m.Token
	g.rep.Propose(cmd, g.commitReply(m.From, func() *wire.Msg {
		return &wire.Msg{Kind: wire.KAck, Token: tok}
	}))
}

// ---- checkpoint and rejoin ----

// slot returns node w's push slot. A new term empties every slot: a
// new leader holds no base. Slots are replaced, not cleared (here and in
// dropServing), so a seal that took its slot before writes only to the
// discarded one. Caller holds cmu.
func (g *manager) slot(w int) *pushSlot {
	if t := g.rep.Leader().Term; t != g.pushTerm {
		g.pushes, g.pushTerm = make([]pushSlot, g.nn), t
	}
	return &g.pushes[w]
}

// snapPage keeps one page frame of a node's push until its seal. Frames
// are not requests: nobody waits for one, and a duplicate or a resent
// frame replaces the image it repeats (a node's snapshot of an episode
// is one set of images per epoch). A frame older than the push under way
// is a late copy; one of a page the node does not home is never read.
func (g *manager) snapPage(m *wire.Msg) {
	g.cmu.Lock()
	s := g.slot(int(m.From))
	if m.Episode > s.episode {
		s.episode, s.frames = m.Episode, map[int32]ckpt.PageImage{}
	}
	if m.Episode == s.episode && s.frames != nil {
		//dsmlint:ignore vtalias Decode allocates exactly sized Data and VT per frame and the frame is kept nowhere else, so the replica's image takes them without a copy
		s.frames[m.Page] = ckpt.PageImage{Page: m.Page, Data: m.Data, HomeVT: m.VT}
	}
	g.cmu.Unlock()
}

// snapSeal stores the snapshot a node sealed: each page it homes is the
// frame pushed for the episode, else the base replica's image (stored
// snapshots are immutable, so they share it). Without the base the seal
// names, or with a frame it names missing, it is answered with a
// redirect naming this leader, and the node pushes every page again with
// no base. The seal is an ordinary request: a retransmission is answered
// from the reply cache.
func (g *manager) snapSeal(m *wire.Msg) {
	w := int(m.From)
	if w == g.n.id { // the leader's own snapshot is in its store already
		g.reply(m.From, &wire.Msg{Kind: wire.KAck, Token: m.Token})
		return
	}
	g.cmu.Lock()
	s := g.slot(w)
	var base []ckpt.PageImage
	if m.Base > 0 && s.base != nil && s.base.Episode == m.Base {
		base = s.base.Pages
	}
	var frames map[int32]ckpt.PageImage
	if s.episode == m.Episode {
		frames = s.frames
	}
	ok := true
	for _, pg := range m.Pages {
		_, in := frames[pg]
		ok = ok && in
	}
	//dsmlint:ignore vtalias the seal is decoded fresh and kept nowhere else, so the replica owns its VT
	snap := &ckpt.NodeSnapshot{Episode: m.Episode, Node: m.From, VT: m.VT, Pages: make([]ckpt.PageImage, 0, len(base))}
	for pg, h := range g.n.cfg.Homes {
		if int(h) != w {
			continue
		}
		img, in := frames[int32(pg)]
		if !in && base != nil {
			img, in = base[len(snap.Pages)], true // one image per homed page, in page order
		}
		ok = ok && in
		snap.Pages = append(snap.Pages, img)
	}
	g.cmu.Unlock()
	if !ok {
		g.reply(m.From, &wire.Msg{Kind: wire.KNotLeader, Token: m.Token, Term: g.rep.Leader().Term, Leader: int32(g.n.id)})
		return
	}
	if err := g.n.cfg.Recover.Store.PutNode(snap); err != nil {
		g.abort(fmt.Errorf("manager: storing replica of %d: %w", w, err))
		return
	}
	g.cmu.Lock()
	s.base, s.frames = snap, nil
	g.cmu.Unlock()
	g.reply(m.From, &wire.Msg{Kind: wire.KAck, Token: m.Token})
}

// joinReq admits a restarted node. A noop is committed first as a read
// barrier, so the grant reflects the rollback any previous leader
// committed; it names the checkpoint episode the cluster rolled back to
// and — when this replica's store holds a copy of the joiner's snapshot
// — that copy's vector time. The copy stays in the joiner's slot, for
// a joiner whose own store is gone to pull page by page with KSnapReq.
func (g *manager) joinReq(m *wire.Msg) {
	w := int(m.From)
	from, tok := m.From, m.Token
	g.rep.Propose(nil, g.commitReply(from, func() *wire.Msg {
		k := g.st.resumePoint()
		reply := &wire.Msg{Kind: wire.KJoinGrant, Token: tok, Episode: k}
		if k > 0 {
			if snap, err := g.n.cfg.Recover.Store.GetNode(k, w); err == nil {
				g.cmu.Lock()
				g.slot(w).join = snap
				g.cmu.Unlock()
				reply.VT = snap.VT
			}
		}
		return reply
	}))
}

// snapReq serves one page of the replica a joiner was granted its
// rejoin from, as a page reply: the image and its home version. A
// leader that granted no rejoin to the joiner in this term — the grant
// came from its predecessor — holds none, and the redirect sends the
// joiner back to re-run the join handshake here. A page the replica
// does not hold is answered empty, which the joiner rejects.
func (g *manager) snapReq(m *wire.Msg) {
	g.cmu.Lock()
	snap := g.slot(int(m.From)).join
	g.cmu.Unlock()
	if snap == nil || snap.Episode != m.Episode {
		g.redirect(m)
		return
	}
	reply := &wire.Msg{Kind: wire.KPageReply, Token: m.Token, Page: m.Page}
	pages := snap.Pages
	if i := sort.Search(len(pages), func(i int) bool { return pages[i].Page >= m.Page }); i < len(pages) && pages[i].Page == m.Page {
		reply.VT, reply.Data = pages[i].HomeVT, pages[i].Data
	}
	g.reply(m.From, reply)
}

// confChange commits a single-server voting-membership change (add or
// remove the replica named by ReqFrom) through the consensus replica. The
// leader rejects a second change while one is uncommitted, and a change
// that would shrink the quorum below usefulness, with a reasoned
// KConfAck; transient leadership errors are dropped so the client's
// retransmission re-resolves the leader.
func (g *manager) confChange(m *wire.Msg) {
	from, tok := m.From, m.Token
	g.rep.ProposeConf(m.Flag == 1, int(m.ReqFrom), func(err error) {
		if err != nil {
			if lostLeadership(err) {
				return
			}
			g.reply(from, &wire.Msg{Kind: wire.KConfAck, Token: tok, Err: err.Error()})
			return
		}
		g.reply(from, &wire.Msg{Kind: wire.KConfAck, Token: tok, Flag: 1})
	})
}

// ---- failure detection ----

// checkLiveness sweeps the manager replica's per-peer stamps; a peer
// silent past HeartbeatTimeout is presumed dead and the whole cluster is
// aborted with a structured error naming it and its pending
// synchronization — a clean fast failure instead of N workers each
// riding out an RPC timeout — unless a supervisor takes the hand-off.
// One node judges: the manager leader, which every peer acks each
// heartbeat and which check-quorum deposes when it stops hearing a voter
// majority (consensus Silences). A deposed leader's verdict frames are
// term-fenced by the receivers.
func (n *Node) checkLiveness() {
	g := n.mgr
	for w, silence := range g.rep.Silences(n.cfg.HeartbeatTimeout) {
		if silence <= n.cfg.HeartbeatTimeout {
			continue
		}
		perr := &PeerDownError{Node: w, Silence: silence, Pending: n.pendingFor(w)}
		if g.handOff(perr) {
			continue
		}
		n.abortCluster(perr)
		return
	}
}

// handOff settles a silence verdict without an abort where it can: a
// recovering peer's silence is expected (KResume re-arms it), a peer
// already reported stays reported until the rollback resets it, and a
// supervisor (OnPeerDown) may take the failure over. It reports whether
// the verdict was settled.
func (g *manager) handOff(perr *PeerDownError) bool {
	w := perr.Node
	if g.st.isRecovering(w) {
		return true
	}
	g.cmu.Lock()
	sus := g.suspect[w]
	g.cmu.Unlock()
	if sus {
		return true
	}
	rc := &g.n.cfg.Recover
	if rc.OnPeerDown == nil {
		return false
	}
	// Marking the peer suspect stops the sweep from re-firing while the
	// rollback is organized.
	g.cmu.Lock()
	g.suspect[w] = true
	g.cmu.Unlock()
	if rc.OnPeerDown(perr) {
		return true
	}
	g.cmu.Lock()
	g.suspect[w] = false
	g.cmu.Unlock()
	return false
}

// pendingFor describes a node's synchronization state as far as this
// node can see it, for the failure verdict. With the sync plane
// distributed, the judge knows the probable owners of the locks homed
// here and the arrival state of its share of the barrier tree — a
// partial but useful picture (a silent peer that owns a local lock or
// whose subtree is still awaited is exactly the interesting case).
func (n *Node) pendingFor(w int) string {
	var parts []string
	n.mu.Lock()
	for id := range n.sy.locks {
		lk := &n.sy.locks[id]
		if n.lockHome(id) == n.id && int(lk.owner) == w {
			parts = append(parts, fmt.Sprintf("probably owns lock %d", id))
		}
	}
	if b := &n.sy.bar; b.arrived != nil {
		// This node sees w only if w is in its subtree, through its child
		// on the path to w; climbing from w stops at that child, or below
		// this node's id if w lies elsewhere in the tree.
		c := w
		for c > n.id && (c-1)/2 != n.id {
			c = (c - 1) / 2
		}
		if _, ok := b.arrived[int32(c)]; c > n.id && !ok {
			parts = append(parts, fmt.Sprintf("barrier %d episode %d awaits its subtree (%d/%d arrivals at node %d)",
				b.barrier, b.episode, len(b.arrived), 1+len(n.barChildren()), n.id))
		}
	}
	n.mu.Unlock()
	if len(parts) == 0 {
		return "no pending synchronization"
	}
	return strings.Join(parts, "; ")
}

// abort fails this node with err and broadcasts it so every peer
// unblocks immediately instead of waiting out its own timeout.
func (g *manager) abort(err error) { g.n.abortCluster(err) }
