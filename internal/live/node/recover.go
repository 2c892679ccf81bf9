package node

import (
	"fmt"
	"sync/atomic"
	"time"

	"lrcdsm/internal/live/consensus"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// keepCheckpoints bounds how many checkpoint episodes a node's store
// retains. The stable checkpoint lags the newest by at most one episode
// (KCkptDone is an acknowledged RPC inside the barrier, so no node can
// be a full checkpoint period ahead of an unconfirmed peer), so pruning
// to the newest few can never drop the episode a recovery would pick.
const keepCheckpoints = 4

// RecoverConfig parameterizes a node's manager replica, its recovery
// epoch and its barrier-aligned checkpoints. The zero value is a node
// that takes no checkpoints, in epoch 0, with a fresh in-memory store
// and consensus slot.
type RecoverConfig struct {
	// Store receives this node's snapshots and, while its replica
	// leads, the peers' replicas (Replicate); nil selects a fresh
	// in-memory one.
	Store ckpt.Store
	// Every takes a checkpoint at each barrier episode divisible by it;
	// non-positive takes none.
	Every int64
	// Replicate pushes every snapshot to the manager leader's store
	// (the pages that changed since the previous one), so a node that
	// loses its own store (disk gone with the host) can still rejoin by
	// pulling its pages from the leader.
	Replicate bool
	// Epoch is the cluster recovery epoch this engine starts in;
	// Incarnation counts the node's restarts (0 for the original) and
	// seeds its election timers apart from its previous incarnation's.
	Epoch       uint32
	Incarnation uint32
	// OnPeerDown intercepts failure detection while this node's replica
	// leads: return true to hand the failure to the supervisor (the peer
	// is marked recovering and the cluster keeps running), false (or a
	// nil OnPeerDown) to abort the cluster. Called on the dispatcher
	// goroutine; it must not block. Set it on every node — any voter
	// can be elected to judge.
	OnPeerDown func(err *PeerDownError) bool

	// Consensus is the durable slot (term, vote, state) of this node's
	// manager replica; nil selects a fresh in-memory one. The supervisor
	// owns the slots so a restarted incarnation resumes from its
	// persisted term and can never vote twice in one term.
	Consensus *consensus.Stable
	// LeaderHint seeds the node's leader cache (a rejoining node is told
	// the leader that granted its rollback).
	LeaderHint int
	// Seed drives the replica's randomized election timers.
	Seed int64
	// Voters names the initial voting membership (nil: every node, or
	// node 0 alone below three nodes). Non-voting nodes still run
	// replicas and can be promoted at runtime with ChangeMembership.
	Voters []int
}

// RollbackError marks a worker unwound deliberately so the cluster can
// roll back to a checkpoint; the supervisor forgives it.
type RollbackError struct {
	// Victim is the crashed node that triggered the rollback.
	Victim int
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("node: rolled back for recovery of node %d", e.Victim)
}

// ---- worker interrupt ----

// InterruptWorker unwinds this node's worker out of whatever it is doing
// — including RPC waits — with err. The engine (frame handler,
// dispatcher, manager replica) keeps running; the worker panics out at
// its next shared access or wait and the interrupt stays armed until
// ClearInterrupt.
func (n *Node) InterruptWorker(err error) {
	n.intrMu.Lock()
	defer n.intrMu.Unlock()
	if n.intrFlag.Load() {
		return
	}
	n.intrErr = err
	n.intrFlag.Store(true)
	close(n.intrCh)
}

// ClearInterrupt re-arms the interrupt for the next round. Call only
// with no worker running.
func (n *Node) ClearInterrupt() {
	n.intrMu.Lock()
	defer n.intrMu.Unlock()
	if !n.intrFlag.Load() {
		return
	}
	n.intrCh = make(chan struct{})
	n.intrErr = nil
	n.intrFlag.Store(false)
}

func (n *Node) intrChan() chan struct{} {
	n.intrMu.Lock()
	defer n.intrMu.Unlock()
	return n.intrCh
}

func (n *Node) panicInterrupted() {
	n.intrMu.Lock()
	err := n.intrErr
	n.intrMu.Unlock()
	if err == nil {
		err = &RollbackError{Victim: -1}
	}
	panic(runError{err})
}

// ---- epoch ----

// SetEpoch moves the engine to recovery epoch e: frames stamped with any
// other epoch are fenced from then on. The supervisor bumps every
// surviving engine before resetting any state, so in-flight pre-rollback
// traffic cannot touch post-rollback state. The store runs on the
// dispatcher, between two requests: a handler that passed the fence in
// the old epoch would otherwise stamp what it sends (a lock forward, a
// barrier aggregate) with the new one, and its receiver would apply
// pre-rollback state after its own reset.
func (n *Node) SetEpoch(e uint32) {
	if n.Control(func() { n.epoch.Store(e) }) != nil {
		n.epoch.Store(e) // shut down: no handler runs any more
	}
}

// ---- replay ----

// BeginReplay puts the worker into replay mode up to barrier episode
// target: shared accesses go to a private scratch space, locks are
// no-ops and barriers only count, so re-executing the app function
// rebuilds the worker's private state (loop counters, cursors) without
// touching the restored shared state. Call before launching the worker.
func (n *Node) BeginReplay(target int64) {
	n.barsDone = 0
	n.heldLocks = 0 // an unwound worker never reached its Unlock
	n.replayTarget = target
	n.replaying = target > 0
	n.replayScratch = nil
	if n.replaying {
		n.replayScratch = make(map[page.ID]page.Buf)
	}
}

// scratchPage returns the worker-local replay copy of pg, seeded from
// the configured initial image on first touch. Worker-only: no locking.
func (n *Node) scratchPage(pg page.ID) page.Buf {
	b := n.replayScratch[pg]
	if b == nil {
		b = page.NewBuf(n.cfg.PageSize)
		if init, ok := n.cfg.Init[pg]; ok {
			copy(b, init)
		}
		n.replayScratch[pg] = b
	}
	return b
}

// replayBarrier counts a barrier during replay; reaching the target
// episode drops the worker back into live execution.
func (n *Node) replayBarrier() {
	if n.intrFlag.Load() {
		n.panicInterrupted()
	}
	n.barsDone++
	if n.barsDone >= n.replayTarget {
		n.replaying = false
		n.replayScratch = nil
	}
}

// ---- manager RPC (leader resolution) ----

// mgrRPC issues one manager request at the current leader, following
// KNotLeader redirects and rotating targets through silence, within the
// node's RPCTimeout. Each attempt is a fresh request under a fresh
// token — manager commands are idempotent, so a duplicate execution
// after a lost reply converges — and every redirect both counts and
// updates the node's leader cache.
func (n *Node) mgrRPC(m *wire.Msg) *wire.Msg {
	r := n.mgrRPCLane(m, 0)
	if r.Kind == wire.KNotLeader {
		// Exhausted RPCTimeout without ever reaching a settled leader.
		panic(runError{fmt.Errorf("node %d: manager rpc %v gave up chasing the leader after %v",
			n.id, m.Kind, n.cfg.RPCTimeout)})
	}
	return r
}

// mgrTarget is the node a manager request is sent to first: the cached
// leader.
func (n *Node) mgrTarget() int {
	to := int(n.leaderHint.Load())
	if to < 0 || to >= n.nn {
		to = 0
	}
	return to
}

// mgrRPCLane is mgrRPC on a token lane (0 is the worker's; the
// supervisor's membership changes run concurrently on one of their own)
// that returns the final KNotLeader instead of giving up on it: a step
// of an exchange whose leader-local serving state cannot survive a
// leader change (a snapshot seal, a page pull) is not retried at the
// new leader, which knows nothing of the exchange, and the caller
// restarts the whole exchange. Transient redirects during an unsettled
// election are still absorbed.
func (n *Node) mgrRPCLane(m *wire.Msg, lane int64) *wire.Msg {
	deadline := time.Now().Add(n.cfg.RPCTimeout)
	perTry := 4 * n.cfg.RetryMax
	if perTry < 250*time.Millisecond {
		perTry = 250 * time.Millisecond
	}
	if lane == confLane && perTry > 500*time.Millisecond {
		// Membership changes are already retried by their caller (the
		// supervisor's promotion loop): chase each candidate leader
		// briefly instead of camping on a dead or unsettled replica for
		// the full retransmission budget.
		perTry = 500 * time.Millisecond
	}
	to := n.mgrTarget()
	backoff := n.cfg.RetryBase
	var last *wire.Msg
	for {
		wait := perTry
		if rem := time.Until(deadline); rem < wait {
			wait = rem
		}
		if wait <= 0 {
			if last != nil {
				return last
			}
			panic(runError{fmt.Errorf("node %d: manager rpc timeout: %v after %v (last target %d)",
				n.id, m.Kind, n.cfg.RPCTimeout, to)})
		}
		req := *m
		r, ok := n.rpcTry(to, &req, wait, lane)
		if ok && r.Kind != wire.KNotLeader {
			return r
		}
		if ok {
			atomic.AddInt64(&n.stats.LeaderRedirects, 1)
			last = r
			if ldr := int(r.Leader); ldr >= 0 && ldr < n.nn && ldr != to {
				to = ldr
			} else if ldr == to {
				// The replica named itself: its serving state is reset and
				// the caller must restart the exchange here.
				n.leaderHint.Store(int32(to))
				return r
			} else {
				to = (to + 1) % n.nn
			}
			n.leaderHint.Store(int32(to))
		} else {
			to = (to + 1) % n.nn
		}
		// Brief jittered pause so an unsettled election is not hammered.
		select {
		case <-time.After(n.jitter(backoff)):
		case <-n.intrChan():
			n.panicInterrupted()
		case <-n.done:
			panic(runError{n.closedErr()})
		}
		backoff *= 2
		if backoff > n.cfg.RetryMax {
			backoff = n.cfg.RetryMax
		}
	}
}

// ---- checkpoint capture ----

// captureCheckpoint runs on the worker right after departing a flagged
// barrier episode: it snapshots the pages homed here (plus the merged
// vector time) into the store, then lets the buffered post-cut flushes
// through, replicates to the manager if configured, and confirms the
// checkpoint so the manager can advance the stable episode.
func (n *Node) captureCheckpoint(episode int64) {
	rc := &n.cfg.Recover
	n.mu.Lock()
	var base int64
	if n.lastSnap != nil {
		base = n.lastSnap.Episode
	}
	snap, fresh := n.snapshotLocked(episode)
	gated := n.gated
	n.gated = nil
	n.gateEpisode = 0
	n.mu.Unlock()
	n.lastSnap = snap

	if err := rc.Store.PutNode(snap); err != nil {
		panic(runError{fmt.Errorf("node %d: storing checkpoint %d: %w", n.id, episode, err)})
	}
	atomic.AddInt64(&n.stats.CheckpointsTaken, 1)
	atomic.AddInt64(&n.stats.CheckpointBytes, snap.Bytes())

	// Drain the gated flushes first — their senders are blocked on these
	// acks. A retransmitted copy buffered twice re-applies as a no-op
	// through the per-writer version checks.
	for _, m := range gated {
		n.handleWriteNotices(m)
	}
	n.sendOwedAcks()

	if rc.Replicate && !n.mgr.isLeader() {
		n.pushSnapshot(snap, base, fresh)
	}
	n.mgrRPC(&wire.Msg{Kind: wire.KCkptDone, Episode: episode})
	if err := rc.Store.Prune(keepCheckpoints); err != nil {
		panic(runError{fmt.Errorf("node %d: pruning checkpoints: %w", n.id, err)})
	}
}

// snapshotLocked builds this node's snapshot of episode: the committed
// view of every page homed here (lpage.committed) and its home version.
// A stored snapshot is immutable, so a page whose home version has not
// moved since the node's previous snapshot shares that snapshot's image:
// every change to a homed page's committed view goes through
// homeRecordLocked, which advances homeVT. Only the changed pages are
// copied under n.mu; fresh lists their indices in snap.Pages. Caller
// holds n.mu and is the worker (lastSnap is worker-private).
func (n *Node) snapshotLocked(episode int64) (snap *ckpt.NodeSnapshot, fresh []int) {
	var prev []ckpt.PageImage
	if n.lastSnap != nil {
		prev = n.lastSnap.Pages
	}
	snap = &ckpt.NodeSnapshot{Episode: episode, Node: int32(n.id), VT: n.vt.Clone()}
	if len(prev) > 0 {
		snap.Pages = make([]ckpt.PageImage, 0, len(prev))
	}
	for pg := range n.pages {
		if int(n.cfg.Homes[pg]) != n.id {
			continue
		}
		ps := &n.pages[pg]
		// The homed set never changes, so the k-th image of every
		// snapshot is the same page.
		if k := len(snap.Pages); k < len(prev) && prev[k].Page == int32(pg) && ps.homeVT.Equal(prev[k].HomeVT) {
			snap.Pages = append(snap.Pages, prev[k])
			continue
		}
		data := make([]byte, len(ps.data))
		ps.committed(data)
		fresh = append(fresh, len(snap.Pages))
		snap.Pages = append(snap.Pages, ckpt.PageImage{
			Page:   int32(pg),
			Data:   data,
			HomeVT: ps.homeVT.Clone(),
		})
	}
	return snap, fresh
}

// pushSnapshot replicates snap in the current leader's store with one
// wait. The images the capture copied (fresh, indices into snap.Pages)
// go out as unacknowledged KSnapPush frames (token 0); then one
// KSnapSeal names them and the episode they go on, base (0: none), and
// is acknowledged once the leader stored the snapshot. A leader without
// that base, or missing a frame — lost, or sent to a previous leader —
// answers the seal with a redirect, and every page goes out again with
// no base, to the leader the redirect named. A node that is the leader
// itself has nothing to push: its own store is the replica store.
func (n *Node) pushSnapshot(snap *ckpt.NodeSnapshot, base int64, fresh []int) {
	for !n.mgr.isLeader() {
		to := n.mgrTarget()
		seal := &wire.Msg{Kind: wire.KSnapSeal, Episode: snap.Episode, Base: base, VT: snap.VT}
		var err error
		for _, k := range fresh {
			if n.intrFlag.Load() {
				n.panicInterrupted()
			}
			img := &snap.Pages[k]
			seal.Pages = append(seal.Pages, img.Page)
			// A leader that cannot be reached gets no more frames (each
			// send may sit out the transport's dial retries); the seal's
			// RPC finds its successor.
			if err == nil {
				err = n.trySend(to, &wire.Msg{Kind: wire.KSnapPush, Episode: snap.Episode, Page: img.Page, VT: img.HomeVT, Data: img.Data})
			}
		}
		if n.mgrRPCLane(seal, 0).Kind != wire.KNotLeader {
			return
		}
		base, fresh = 0, fresh[:0]
		for k := range snap.Pages {
			fresh = append(fresh, k)
		}
	}
}

// ---- rollback and rejoin ----

// ResetToCheckpoint rolls this node's shared state back to snap (nil
// means the initial image, episode 0): homed pages take the snapshot
// contents and version accounting, every cached copy is invalidated,
// open write intervals, need vectors, unacknowledged flush flights and
// parked requests are discarded, the vector time becomes the snapshot's,
// and this node's share of the distributed synchronization plane
// restarts at the checkpoint cut (see syncState.reset). Call only with
// the worker stopped.
func (n *Node) ResetToCheckpoint(snap *ckpt.NodeSnapshot) {
	imgs := make(map[page.ID]*ckpt.PageImage)
	if snap != nil {
		for i := range snap.Pages {
			imgs[page.ID(snap.Pages[i].Page)] = &snap.Pages[i]
		}
	}
	n.mu.Lock()
	if snap != nil {
		n.vt = vc.VC(snap.VT).Clone()
	} else {
		n.vt = vc.New(n.nn)
	}
	for pg := range n.pages {
		ps := &n.pages[pg]
		ps.dropTwin()
		ps.log = nil
		ps.need = nil // every interval up to the cut is at its home
		if int(n.cfg.Homes[pg]) != n.id {
			ps.setState(false)
			ps.copyVT = vc.New(n.nn)
			continue
		}
		if ps.data == nil {
			ps.data = page.NewBuf(n.cfg.PageSize)
		}
		if img := imgs[page.ID(pg)]; img != nil {
			copy(ps.data, img.Data)
			ps.homeVT = vc.VC(img.HomeVT).Clone()
		} else {
			for i := range ps.data {
				ps.data[i] = 0
			}
			if init, ok := n.cfg.Init[page.ID(pg)]; ok {
				copy(ps.data, init)
			}
			ps.homeVT = vc.New(n.nn)
		}
		// The diff log restarts empty with its base at the restored
		// version: a puller behind the base falls back to a full copy.
		ps.logBase = ps.homeVT.Clone()
		ps.copyVT = ps.homeVT.Clone()
		ps.setState(true)
	}
	n.mod = n.mod[:0]
	n.gateEpisode = 0
	n.gated = nil
	n.parked = nil
	n.lastSnap = nil // homeVT no longer says what changed since it
	var episode int64
	if snap != nil {
		episode = snap.Episode
	}
	n.sy.reset(episode, n.vt, n.id)
	n.mu.Unlock()

	n.pmu.Lock()
	n.pending = make(map[int64]chan *wire.Msg)
	n.pmu.Unlock()
	n.resetFlights()
}

// JoinCluster runs a restarted node's rejoin handshake: it announces
// itself to the manager, restores the checkpoint the cluster rolled back
// to — from its own store if it survived the crash, else pulled page by
// page from the manager's replica — resumes liveness, and arms replay up
// to the checkpoint episode. Call on a freshly built engine after Start,
// before launching the worker.
func (n *Node) JoinCluster() (err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("node %d: rejoin: %w", n.id, re.err)
		}
	}()
	rc := &n.cfg.Recover
	for {
		grant := n.mgrRPC(&wire.Msg{Kind: wire.KJoinReq})
		k := grant.Episode
		var snap *ckpt.NodeSnapshot
		if k > 0 {
			if s, gerr := rc.Store.GetNode(k, n.id); gerr == nil {
				snap = s
			} else if len(grant.VT) == 0 {
				return fmt.Errorf("node %d: checkpoint %d neither local nor at manager", n.id, k)
			} else if snap, err = n.pullSnapshot(k, grant.VT); err != nil {
				return err
			} else if snap == nil {
				// The granting leader lost office mid-pull; its successor
				// holds no replica for us. Re-run the whole handshake.
				continue
			} else if err = rc.Store.PutNode(snap); err != nil {
				// Kept locally so the next stable-episode accounting and a
				// repeated crash stay honest.
				return fmt.Errorf("node %d: storing pulled snapshot %d: %w", n.id, k, err)
			}
		}
		n.ResetToCheckpoint(snap)
		n.mgrRPC(&wire.Msg{Kind: wire.KResume})
		n.BeginReplay(k)
		return nil
	}
}

// pullSnapshot fetches this node's snapshot of episode k, whose vector
// time a join grant carried, from the manager leader's replica: one
// KSnapReq per page it homes, in page order, each an ordinary manager
// RPC answered with the page's image and home version. It returns nil
// when the leader holds no replica for it any more (a leader change),
// and an error when a reply does not fit the page asked for.
func (n *Node) pullSnapshot(k int64, vt []int32) (*ckpt.NodeSnapshot, error) {
	if len(vt) != n.nn {
		return nil, fmt.Errorf("node %d: join grant of snapshot %d carries a %d-entry vector time, want %d", n.id, k, len(vt), n.nn)
	}
	//dsmlint:ignore vtalias the grant is decoded fresh and kept nowhere else, so the snapshot owns its VT
	snap := &ckpt.NodeSnapshot{Episode: k, Node: int32(n.id), VT: vt}
	for pg, h := range n.cfg.Homes {
		if int(h) != n.id {
			continue
		}
		r := n.mgrRPCLane(&wire.Msg{Kind: wire.KSnapReq, Episode: k, Page: int32(pg)}, 0)
		switch {
		case r.Kind == wire.KNotLeader:
			return nil, nil
		case r.Kind != wire.KPageReply || r.Page != int32(pg) || len(r.Data) != n.cfg.PageSize || len(r.VT) != n.nn:
			return nil, fmt.Errorf("node %d: pulling snapshot %d: page %d answered by %v of page %d, %d bytes, %d-entry vector time",
				n.id, k, pg, r.Kind, r.Page, len(r.Data), len(r.VT))
		}
		//dsmlint:ignore vtalias Decode allocates exactly sized Data and VT per frame and the reply is kept nowhere else, so the snapshot's image takes them without a copy
		snap.Pages = append(snap.Pages, ckpt.PageImage{Page: r.Page, Data: r.Data, HomeVT: r.VT})
	}
	return snap, nil
}

// ---- dispatcher control ----

// Control runs fn on the dispatcher goroutine — the owner of all manager
// state — and waits for it. It fails instead of blocking when the node
// is shut down.
func (n *Node) Control(fn func()) error {
	ran := make(chan struct{})
	wrapped := func() { fn(); close(ran) }
	select {
	case n.ctl <- wrapped:
	case <-n.done:
		return n.closedErr()
	}
	select {
	case <-ran:
		return nil
	case <-n.done:
		// The dispatcher may have picked fn up right before shutdown.
		select {
		case <-ran:
			return nil
		default:
			return n.closedErr()
		}
	}
}

func (n *Node) closedErr() error {
	if err := n.Err(); err != nil {
		return err
	}
	return fmt.Errorf("node %d: shut down", n.id)
}

// awaitCommit proposes cmd on this node's manager replica and blocks
// for the commit, bounded by RPCTimeout and the node's shutdown.
func (n *Node) awaitCommit(cmd []byte) error {
	errc := make(chan error, 1)
	n.mgr.rep.Propose(cmd, func(err error) { errc <- err })
	select {
	case err := <-errc:
		return err
	case <-n.done:
		return n.closedErr()
	case <-time.After(n.cfg.RPCTimeout):
		return fmt.Errorf("node %d: manager command did not commit within %v", n.id, n.cfg.RPCTimeout)
	}
}

// StableCheckpoint returns the newest checkpoint episode every node has
// confirmed durably stored (0 = the initial image). The manager leader
// only. A noop is committed first as a read barrier, so the answer
// reflects everything any previous leader acknowledged.
func (n *Node) StableCheckpoint() (int64, error) {
	if err := n.awaitCommit(nil); err != nil {
		return 0, err
	}
	return n.mgr.st.stable(), nil
}

// ResetManager rolls the manager's replicated state back to checkpoint
// episode k and marks victim as recovering: its silence is expected,
// its rejoin is awaited, and liveness skips it until KResume. The
// manager leader only; the reset commits before returning. Call after
// SetEpoch on every surviving engine.
func (n *Node) ResetManager(k int64, victim int) error {
	return n.awaitCommit(encodeReset(int32(victim), k))
}

// ConsensusLeader reports this node's view of the manager's voting
// group: the current term's leader (-1 while an election is unsettled)
// and whether this node is it.
func (n *Node) ConsensusLeader() (leader int, isLeader bool) {
	info := n.mgr.rep.Leader()
	return info.Leader, info.IsLeader
}

// ConsensusVoters reports this node's current view of the manager's
// voting membership.
func (n *Node) ConsensusVoters() []int {
	return n.mgr.rep.Leader().Voters
}

// confLane is the token lane of membership-change RPCs: the supervisor
// issues them concurrently with the worker's lane-0 manager RPCs, and
// each lane keeps its own monotonic dedup window at the leader.
const confLane int64 = 0x3F0C

// ChangeMembership commits a single-server change to the quorum's
// voting membership through the current leader: add (or remove) node
// target as a voter. It follows leader redirects like any manager RPC
// and returns an error when the change is rejected (one change at a
// time; a removal may not shrink the voting set below three), or when
// no settled leader was reached in time. Safe to call from supervisor
// goroutines while the worker runs.
func (n *Node) ChangeMembership(add bool, target int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("node %d: membership change: %w", n.id, re.err)
		}
	}()
	m := &wire.Msg{Kind: wire.KConfChange, ReqFrom: int32(target)}
	if add {
		m.Flag = 1
	}
	r := n.mgrRPCLane(m, confLane)
	if r.Kind == wire.KNotLeader {
		return fmt.Errorf("node %d: membership change gave up chasing the leader", n.id)
	}
	if r.Flag != 1 {
		return fmt.Errorf("node %d: membership change rejected: %s", n.id, r.Err)
	}
	return nil
}
