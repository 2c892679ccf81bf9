package node

// sync.go is the node's slice of the decentralized synchronization
// plane that replaced the centralized manager's lock, barrier and
// interval-log duties.
//
// Locks are home-based with ownership forwarding (the TreadMarks
// scheme): every lock has a static home node (lockHome) that tracks a
// probable owner. An acquire goes to the home, which either grants
// directly (a never-owned lock has an empty history, so a zero vector
// time is exact) or forwards the request to the probable owner and
// repoints the pointer at the requester — collapsing the chain so each
// node sees at most one pending successor per lock. The owner hands the
// lock straight to the successor with the release-time vector time and
// the write notices the successor is missing, computed from its own
// per-writer knowledge. Re-acquiring a lock this node still owns, and
// releasing with no successor queued, are local operations with zero
// messages.
//
// Barriers combine up a binary fan-in tree rooted at node 0: each
// worker delivers its arrival (with its own new interval notices) to
// its local dispatcher, dispatchers aggregate their subtree and forward
// one combined arrival to the parent, and the root fans the release —
// merged vector time plus the episode's full notice set — back down.
// Node 0's per-episode message degree drops from N-1 to its tree
// degree.
//
// Interval knowledge is per-writer: each node appends its own closed
// intervals to its own log and the intervals it learns from grants and
// releases to a learned log per writer. Within an epoch no log is
// pruned, so each runs without gaps from the rollback cut to this
// node's vector time, and a grant's notices always cover everything
// between the requester's vector time and the grant time.
//
// Idempotence: a worker's RPC tokens are strictly increasing and a
// worker blocked on a lock or barrier sends nothing newer, so every
// node de-duplicates by (origin, token) — the home against requesters
// (re-sending the cached grant or re-forwarding), the owner against
// forwarded requests (re-sending the cached handoff grant), and the
// barrier aggregation against repeated arrivals (re-forwarding the
// aggregate up, or re-serving the release after it). Retransmission is
// driven entirely by the blocked requester's retry schedule.
//
// All of this state is guarded by Node.mu: the worker's fast paths, the
// dispatcher's handlers and the supervisor's checkpoint reset touch it
// from different goroutines.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/vc"
)

// lockHome maps a lock to its static home node.
func (n *Node) lockHome(id int) int { return id % n.nn }

// barParent is this node's parent in the barrier tree (root: node 0).
func (n *Node) barParent() int { return (n.id - 1) / 2 }

// barChildren lists this node's children in the barrier tree.
func (n *Node) barChildren() []int {
	var out []int
	for _, c := range []int{2*n.id + 1, 2*n.id + 2} {
		if c < n.nn {
			out = append(out, c)
		}
	}
	return out
}

// syncState is one node's share of the distributed synchronization
// plane. Guarded by Node.mu.
type syncState struct {
	locks   []dlock
	know    []knowLog
	clients []lclients

	// Barrier tree state: the episode currently aggregating, the last
	// released episode, and the retained release for re-serving
	// duplicate arrivals that surface after it. relEpisode and
	// lastRelease move together under Node.mu; lastRelease is nil only
	// between a rollback and the first release after it.
	bar         barAgg
	relEpisode  int64
	lastRelease *wire.Msg
	// lastBarIdx is this node's own interval index at its last barrier
	// departure: the base of the own-notice set the next arrival carries.
	lastBarIdx int32
}

// dlock is one lock's local state. The home fields are meaningful on
// the lock's home node, the owner fields wherever the lock currently
// lives; on a lock homed at its owner both sets are in play.
type dlock struct {
	// owner is the home's probable-owner pointer (-1 = never granted).
	owner int32
	// owned marks this node as the lock's current owner; held marks the
	// worker inside the critical section. An owned, unheld lock with no
	// successor is re-acquirable and releasable with zero messages.
	owned bool
	held  bool
	// relVT is this node's vector time at its last release of the lock —
	// the grant time a handoff carries.
	relVT []int32
	// succ is the forwarded successor to hand the lock to at release.
	// The home's chain collapsing guarantees at most one.
	succ *fwdReq
}

type fwdReq struct {
	from  int32
	token int64
	vt    []int32
}

// lclient extends the per-peer de-duplication window with the home's
// forward cache: a retransmitted request whose forward (not reply) was
// the action gets the forward re-sent to the same probable owner.
type lclient struct {
	mclient
	fwdTok int64
	fwdTo  int32
	fwd    *wire.Msg
}

// lclients holds one origin node's de-duplication windows, one per
// token lane. The window's "token <= lastTok means duplicate" logic
// needs tokens that are strictly increasing with at most one
// outstanding — true per requester goroutine, not per node once a
// serving node runs several executor goroutines. Each executor stamps
// its lane into the token's high bits (Node.LaneWorker), restoring the
// invariant lane by lane. Plain workers use lane 0.
type lclients struct {
	lanes map[int64]*lclient
}

// lane returns (creating on demand) the window for tok's lane.
func (cs *lclients) lane(tok int64) *lclient {
	l := tok >> laneShift
	c := cs.lanes[l]
	if c == nil {
		if cs.lanes == nil {
			cs.lanes = make(map[int64]*lclient)
		}
		c = &lclient{}
		cs.lanes[l] = c
	}
	return c
}

// knowLog is one writer's interval knowledge from the rollback cut base
// on: interval base+1+i wrote pgs[ends[i-1]:ends[i]] (ends[-1] = 0).
// Two pointer-free slices instead of a slice per record keep a long log
// cheap to hold and invisible to the garbage collector's scan. Coverage
// always reaches at least this node's vector time entry for the writer.
type knowLog struct {
	base int32
	pgs  []int32
	ends []int
}

func (k *knowLog) covered() int32 { return k.base + int32(len(k.ends)) }

// add appends the next interval's pages, copying them.
func (k *knowLog) add(pages []int32) {
	k.pgs = append(k.pgs, pages...)
	k.ends = append(k.ends, len(k.pgs))
}

// pages returns interval idx's pages, capacity clipped so an append by
// the caller cannot overwrite the next record.
func (k *knowLog) pages(idx int32) []int32 {
	i := int(idx - k.base - 1)
	lo := 0
	if i > 0 {
		lo = k.ends[i-1]
	}
	return k.pgs[lo:k.ends[i]:k.ends[i]]
}

// barAgg accumulates one barrier episode's arrivals from this node's
// worker and tree children.
type barAgg struct {
	episode int64
	barrier int32
	arrived map[int32]int64 // arriver -> token (meaningful for self)
	vt      vc.VC
	notices []wire.Notice
	agg     *wire.Msg // the aggregate sent up (non-root), for re-sends
}

func newSyncState(nlocks, nn int) *syncState {
	sy := &syncState{
		locks:   make([]dlock, nlocks),
		know:    make([]knowLog, nn),
		clients: make([]lclients, nn),
	}
	for i := range sy.locks {
		sy.locks[i].owner = -1
	}
	return sy
}

// reset rolls the sync plane back to a checkpoint cut: locks restart
// unowned at their homes (every release before the checkpoint barrier
// happened-before its merged vector time, so a zero-time first grant
// loses nothing), barrier aggregation restarts at the checkpoint
// episode, and per-writer knowledge restarts at the snapshot vector
// time. Caller holds Node.mu.
func (sy *syncState) reset(episode int64, vt vc.VC, self int) {
	for i := range sy.locks {
		sy.locks[i] = dlock{owner: -1}
	}
	for w := range sy.know {
		sy.know[w] = knowLog{base: vt.Get(w)}
	}
	for i := range sy.clients {
		sy.clients[i] = lclients{}
	}
	sy.bar = barAgg{}
	sy.relEpisode = episode
	sy.lastRelease = nil
	sy.lastBarIdx = vt.Get(self)
}

// ---- worker side: locks ----

// Lock implements core.Worker. Re-acquiring a lock this node still owns
// with no successor queued is purely local; otherwise the request goes
// to the lock's home, which grants directly (never-owned) or forwards
// to the probable owner, whose grant arrives with the release-time
// vector time and the write notices this node is missing.
func (n *Node) Lock(id int) {
	n.foldHits()
	n.pollGen = n.gen.Load()
	n.heldLocks++
	n.lockLane(id, 0)
}

// lockLane is Lock with an explicit token lane — concurrent serving
// executors acquire on private lanes (see lclients) so their
// interleaved tokens don't trip the per-origin duplicate windows.
func (n *Node) lockLane(id int, lane int64) {
	if n.replaying {
		return // replay re-derives private state only; locks are moot
	}
	if n.lockInPlace(id) {
		return
	}
	// Only an acquire that sends a request is a wait (LockWaitNs).
	n.mu.Lock()
	reqVT := n.vt.Clone()
	n.mu.Unlock()
	t0 := time.Now()
	reply := n.rpcLane(n.lockHome(id), &wire.Msg{Kind: wire.KLockReq, Lock: int32(id), VT: reqVT}, lane)
	n.applyNotices(reply.VT, reply.Notices, reply.Diffs)
	n.mu.Lock()
	lk := &n.sy.locks[id]
	lk.owned = true
	lk.held = true
	n.mu.Unlock()
	atomic.AddInt64(&n.stats.LockAcquires, 1)
	atomic.AddInt64(&n.stats.LockWaitNs, time.Since(t0).Nanoseconds())
}

// lockInPlace is the zero-message acquire: it takes lock id only if this
// node still owns it, no successor is queued for it and the node is not
// replaying, and reports whether it did. A refusal sends nothing and
// counts nothing; the caller then requests the lock (lockLane) or hands
// the acquire to a goroutine that may (a serving executor).
func (n *Node) lockInPlace(id int) bool {
	if n.replaying {
		return false
	}
	n.mu.Lock()
	lk := &n.sy.locks[id]
	if !lk.owned || lk.succ != nil {
		n.mu.Unlock()
		return false
	}
	lk.held = true
	n.mu.Unlock()
	atomic.AddInt64(&n.stats.LockAcquires, 1)
	atomic.AddInt64(&n.stats.LockLocalAcquires, 1)
	return true
}

// Unlock implements core.Worker: it closes the write interval — sending
// its diffs home without waiting for the acks — and, if a successor was
// forwarded here, hands the lock straight to it: the grant may overtake
// the flush, and the successor's first fault, pull or access to a page
// it homes waits for the flush instead (see lpage.need). With no successor the
// lock stays owned in place and the release costs no lock messages.
func (n *Node) Unlock(id int) {
	n.foldHits()
	n.heldLocks--
	n.unlock(id)
}

// unlock is Unlock without the own worker's hit accounting, shared with
// lane workers.
func (n *Node) unlock(id int) {
	if n.replaying {
		return
	}
	n.closeInterval()
	n.mu.Lock()
	lk := &n.sy.locks[id]
	lk.held = false
	lk.relVT = append(lk.relVT[:0], n.vt...) // grants copy it; reuse the slot
	var g *wire.Msg
	var to int32
	if s := lk.succ; s != nil {
		lk.succ = nil
		lk.owned = false
		g, to = n.buildGrantLocked(id, s), s.from
	}
	n.mu.Unlock()
	if g != nil {
		atomic.AddInt64(&n.stats.LockHandoffs, 1)
		n.send(int(to), g)
	}
}

// backoffBackstop bounds a park in Backoff, in nanoseconds: defence in
// depth, not the wake-up (BackoffTimeouts counts its firings). Tests
// raise it while pollers may still park, so it is read atomically.
var backoffBackstop atomic.Int64

func init() { backoffBackstop.Store(int64(time.Millisecond)) }

// Backoff implements core.Worker: the own worker parks until the next
// turn ends, the dispatcher's or an in-place one (the only way what a
// poll reads can change), an interrupt, shutdown or the backstop — if
// it holds no lock, has no open interval, is not replaying, and nothing
// was handled since its last Lock began. Raising idle before re-reading gen
// is what loses no wake-up (DESIGN.md §12.6).
func (n *Node) Backoff(int64) {
	if n.heldLocks != 0 || n.replaying || n.gen.Load() != n.pollGen {
		return
	}
	n.idle.Add(1)
	defer n.idle.Add(-1)
	n.mu.Lock()
	open := len(n.mod) != 0
	n.mu.Unlock()
	if open || n.gen.Load() != n.pollGen {
		return
	}
	atomic.AddInt64(&n.stats.BackoffParks, 1)
	backstop := time.NewTimer(time.Duration(backoffBackstop.Load()))
	defer backstop.Stop()
	select {
	case <-n.wake: // possibly a stale token: one extra poll
	case <-backstop.C:
		atomic.AddInt64(&n.stats.BackoffTimeouts, 1)
	case <-n.intrChan():
		n.panicInterrupted()
	case <-n.done:
		panic(runError{n.closedErr()})
	}
}

// handled counts a finished turn and wakes a parked poller: one atomic
// add and one load when nobody is parked.
func (n *Node) handled() {
	n.gen.Add(1)
	if n.idle.Load() != 0 {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

// buildGrantLocked builds (and caches, for retransmitted requests) the
// grant handing lock id to successor s: the last release's vector time
// and the notices between the successor's time and it, from local
// knowledge, and under LH the diffs of the noticed pages homed here
// (grantDiffsLocked). Caller holds Node.mu.
func (n *Node) buildGrantLocked(id int, s *fwdReq) *wire.Msg {
	lk := &n.sy.locks[id]
	g := &wire.Msg{
		Kind:    wire.KLockGrant,
		Token:   s.token,
		Lock:    int32(id),
		VT:      append([]int32(nil), lk.relVT...),
		Notices: n.noticesBetweenLocked(s.vt, lk.relVT),
	}
	if n.cfg.Protocol == core.LH && int(s.from) != n.id {
		g.Diffs = n.grantDiffsLocked(s.vt, g.VT, g.Notices)
	}
	n.sy.clients[s.from].lane(s.token).cache(g)
	return g
}

// grantDiffBudget bounds the diff payload one grant carries, far below
// wire.MaxFrame; the pages past it are pulled.
const grantDiffBudget = 64 << 10

// grantDiffsLocked returns the diffs an LH grant with vector time gvt
// carries to a requester whose vector time is req: for each page the
// notices name whose home is this node, the page's log entries between
// req and gvt — what handleDiffReq would serve a copy at req, less the
// intervals the grant does not make the requester aware of — when the
// home already holds every interval the notices name for the page and
// the log reaches back to req. The acquirer applies a page's diffs only
// if they make its copy current (applyCarriedLocked) and pulls the rest.
// Caller holds Node.mu.
func (n *Node) grantDiffsLocked(req, gvt []int32, notices []wire.Notice) []wire.Diff {
	var order []int32
	var held map[int32]bool // page -> every noticed interval is at the home
	for _, nt := range notices {
		for _, p := range nt.Pages {
			if int(n.cfg.Homes[p]) != n.id {
				continue
			}
			ok, seen := held[p]
			if !seen {
				if held == nil {
					held = make(map[int32]bool)
				}
				order, ok = append(order, p), true
			}
			held[p] = ok && n.pages[p].homeVT.CoversInterval(int(nt.Writer), nt.Index)
		}
	}
	var out []wire.Diff
	budget := grantDiffBudget
	for _, p := range order {
		ps := &n.pages[p]
		if !held[p] || !logReaches(ps.logBase, req) {
			continue
		}
		start, size := len(out), 0
		for _, wd := range ps.log {
			w := int(wd.Writer)
			if (w < len(req) && wd.Index <= req[w]) || w >= len(gvt) || wd.Index > gvt[w] {
				continue
			}
			out = append(out, wd)
			size += wd.D.SizeBytes()
		}
		if size > budget {
			out = out[:start]
			continue
		}
		budget -= size
	}
	return out
}

// logReaches reports whether a page log whose pruned prefix is base still
// holds every entry past the vector time have (length untrusted).
func logReaches(base vc.VC, have []int32) bool {
	for w, b := range base {
		if b > 0 && (w >= len(have) || have[w] < b) {
			return false
		}
	}
	return true
}

// ---- dispatcher side: locks ----

// handleLockReq serves an acquire at the lock's home: grant directly if
// the lock was never owned, accept in place if the home itself is the
// probable owner, else forward to the owner and repoint at the
// requester.
func (n *Node) handleLockReq(m *wire.Msg) {
	n.mu.Lock()
	c := n.sy.clients[m.From].lane(m.Token)
	if m.Token <= c.lastTok {
		var out *wire.Msg
		to := int(m.From)
		if r, ok := c.replies[m.Token]; ok {
			out = r
		} else if c.fwd != nil && c.fwdTok == m.Token {
			out, to = c.fwd, int(c.fwdTo)
		}
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.DupRequests, 1)
		if out != nil {
			n.send(to, out)
		}
		return
	}
	c.lastTok = m.Token
	lk := &n.sy.locks[m.Lock]
	prev := lk.owner
	lk.owner = m.From
	if prev < 0 {
		// Never owned: the lock's history is empty, so a zero vector time
		// and no notices are exact.
		g := &wire.Msg{Kind: wire.KLockGrant, Token: m.Token, Lock: m.Lock, VT: make([]int32, n.nn)}
		c.cache(g)
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.LockHandoffs, 1)
		n.send(int(m.From), g)
		return
	}
	// The queued successor can outlive this handler by a whole critical
	// section; give it its own copy of the requester's vector time rather
	// than retaining the decoded frame's slice (which, over the in-process
	// transport, the sender's copy of the message still shares).
	s := &fwdReq{from: m.From, token: m.Token, vt: append([]int32(nil), m.VT...)}
	if int(prev) == n.id {
		out, to := n.acceptForwardLocked(int(m.Lock), s)
		n.mu.Unlock()
		if out != nil {
			atomic.AddInt64(&n.stats.LockHandoffs, 1)
			n.send(to, out)
		}
		return
	}
	//dsmlint:ignore vtalias the forward is encoded before the handler returns and only re-encoded on retransmit; nothing mutates the carried VT
	fwd := &wire.Msg{Kind: wire.KLockForward, Token: m.Token, Lock: m.Lock, ReqFrom: m.From, VT: m.VT}
	c.fwdTok, c.fwdTo, c.fwd = m.Token, prev, fwd
	n.mu.Unlock()
	atomic.AddInt64(&n.stats.LockForwards, 1)
	n.send(int(prev), fwd)
}

// handleLockForward serves a forwarded acquire at the probable owner.
func (n *Node) handleLockForward(m *wire.Msg) {
	n.mu.Lock()
	c := n.sy.clients[m.ReqFrom].lane(m.Token)
	if m.Token <= c.lastTok {
		r := c.replies[m.Token]
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.DupRequests, 1)
		if r != nil {
			n.send(int(m.ReqFrom), r)
		}
		return
	}
	c.lastTok = m.Token
	// As in handleLockReq: the successor may be queued past this handler's
	// lifetime, so it owns a copy of the requester's vector time.
	out, to := n.acceptForwardLocked(int(m.Lock), &fwdReq{from: m.ReqFrom, token: m.Token, vt: append([]int32(nil), m.VT...)})
	n.mu.Unlock()
	if out != nil {
		atomic.AddInt64(&n.stats.LockHandoffs, 1)
		n.send(to, out)
	}
}

// acceptForwardLocked takes a (de-duplicated) forwarded request at the
// probable owner: a released-in-place lock is granted immediately;
// otherwise — the worker holds it, or this node's own grant is still in
// flight — the successor is queued for handoff at the next release.
// Caller holds Node.mu; the returned message is sent after unlocking.
func (n *Node) acceptForwardLocked(id int, s *fwdReq) (*wire.Msg, int) {
	lk := &n.sy.locks[id]
	if lk.owned && !lk.held && lk.succ == nil {
		lk.owned = false
		return n.buildGrantLocked(id, s), int(s.from)
	}
	if lk.succ != nil {
		n.fail(fmt.Errorf("node %d: second successor %d for lock %d (have %d) — home chain collapse violated",
			n.id, s.from, id, lk.succ.from))
		return nil, 0
	}
	lk.succ = s
	return nil, 0
}

// ---- worker side: barriers ----

// Barrier implements core.Worker: the worker closes its write interval,
// waits for every flush it has in flight to be acknowledged (the one
// release that still does: it keeps the episode a consistent cut, and
// spares every departing node a wait at the homes), and delivers its
// arrival — with notices for its own intervals since
// the last episode — to its local dispatcher, which aggregates the
// subtree up the barrier tree. The departure arrives with the merged
// vector time and the episode's full notice set.
func (n *Node) Barrier(id int) {
	n.foldHits()
	if n.replaying {
		n.replayBarrier()
		return
	}
	// A flagged episode closes a checkpoint cut at this barrier. The
	// capture gate goes up before the arrival is sent: every flush this
	// node receives from a peer that already departed the episode (its
	// stamp >= gateEpisode) is buffered until the capture is done, so the
	// snapshot sees exactly the pre-barrier state. Flushes stamped below
	// the gate belong to intervals that happened-before the barrier and
	// apply normally — every node drains its flights before it arrives,
	// so they were all acknowledged before this node's own departure.
	episodeNext := n.barsDone + 1
	flagged := false
	if every := n.cfg.Recover.Every; every > 0 && episodeNext%every == 0 {
		flagged = true
		n.mu.Lock()
		n.gateEpisode = episodeNext
		n.mu.Unlock()
	}
	n.closeInterval()
	n.drainFlights()
	n.mu.Lock()
	k := &n.sy.know[n.id]
	var own []wire.Notice
	for idx := n.sy.lastBarIdx + 1; idx <= k.covered(); idx++ {
		own = append(own, wire.Notice{Writer: int32(n.id), Index: idx, Pages: k.pages(idx)})
	}
	vtSnap := n.vt.Clone()
	n.mu.Unlock()
	t0 := time.Now()
	reply := n.rpc(n.id, &wire.Msg{
		Kind: wire.KBarArrive, Barrier: int32(id), Episode: episodeNext,
		VT: vtSnap, Notices: own,
	})
	n.applyNotices(reply.VT, reply.Notices, nil)
	n.mu.Lock()
	n.sy.lastBarIdx = n.vt.Get(n.id)
	n.mu.Unlock()
	atomic.AddInt64(&n.stats.BarrierEpisodes, 1)
	atomic.AddInt64(&n.stats.BarrierWaitNs, time.Since(t0).Nanoseconds())
	if n.obs != nil {
		n.obs.BarrierDeparted(n.id, reply.Episode, vc.VC(reply.VT).Clone())
	}
	n.barsDone++
	if flagged {
		n.captureCheckpoint(reply.Episode)
	}
}

// ---- dispatcher side: barriers ----

// handleBarArrive aggregates one arrival (the local worker's, or a
// child subtree's) into the pending episode. A complete subtree is
// forwarded up; at the root a complete episode is released down.
func (n *Node) handleBarArrive(m *wire.Msg) {
	n.mu.Lock()
	sy := n.sy
	if m.Episode <= sy.relEpisode {
		// Already released: a lost release or a straggling retransmission.
		// Re-serve the newest release (none yet right after a rollback).
		rel := sy.lastRelease
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.DupRequests, 1)
		if rel == nil {
			return
		}
		if int(m.From) == n.id {
			n.send(n.id, departFrom(rel, m.Token))
		} else {
			cp := *rel
			n.send(int(m.From), &cp)
		}
		return
	}
	b := &sy.bar
	if b.arrived == nil {
		*b = barAgg{episode: m.Episode, barrier: m.Barrier, arrived: map[int32]int64{}, vt: vc.New(n.nn)}
	}
	if b.episode != m.Episode || b.barrier != m.Barrier {
		n.mu.Unlock()
		n.fail(fmt.Errorf("node %d: arrival for barrier %d episode %d while aggregating barrier %d episode %d",
			n.id, m.Barrier, m.Episode, b.barrier, b.episode))
		return
	}
	if _, dup := b.arrived[m.From]; dup {
		// A retransmission while the episode is still pending. On an inner
		// node the aggregate (or the original arrival's loss) may be what
		// is stuck — push the subtree's state up again.
		agg := b.agg
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.DupRequests, 1)
		if agg != nil {
			n.send(n.barParent(), agg)
		}
		return
	}
	b.arrived[m.From] = m.Token
	b.vt.Join(m.VT)
	//dsmlint:ignore vtalias arrivals are decoded fresh per frame and the aggregate is read-only once built; recordKnowledgeLocked clones what it keeps
	b.notices = append(b.notices, m.Notices...)
	if len(b.arrived) < 1+len(n.barChildren()) {
		n.mu.Unlock()
		return
	}
	if n.id != 0 {
		agg := &wire.Msg{
			Kind: wire.KBarArrive, Barrier: b.barrier, Episode: b.episode,
			VT: b.vt.Clone(), Notices: b.notices,
		}
		b.agg = agg
		n.mu.Unlock()
		n.send(n.barParent(), agg)
		return
	}
	// Root: the episode is complete across the cluster. A flagged
	// episode releases like any other: each node snapshots its own share
	// after departing, holding the merged vector time (DESIGN.md §11.1).
	rel := &wire.Msg{Kind: wire.KBarRelease, Barrier: b.barrier, Episode: b.episode, VT: b.vt.Clone(), Notices: b.notices}
	selfTok := b.arrived[int32(n.id)]
	sy.relEpisode = rel.Episode
	sy.lastRelease = rel
	sy.bar = barAgg{}
	n.mu.Unlock()
	n.fanRelease(rel, selfTok)
}

// fanRelease sends a completed episode's release to this node's
// children and the local worker's synthesized depart. Call on the
// dispatcher without Node.mu held, after publishing lastRelease under
// it: the recovery epoch only moves between two dispatcher turns (see
// SetEpoch), so every copy carries the epoch the episode was built in.
func (n *Node) fanRelease(rel *wire.Msg, selfTok int64) {
	for _, c := range n.barChildren() {
		cp := *rel
		n.send(c, &cp)
	}
	n.send(n.id, departFrom(rel, selfTok))
}

// handleBarRelease fans a completed episode down: remember it for
// re-serving, release the local worker, and forward to the children.
func (n *Node) handleBarRelease(m *wire.Msg) {
	n.mu.Lock()
	sy := n.sy
	if m.Episode <= sy.relEpisode {
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.DupRequests, 1)
		return
	}
	selfTok, ok := sy.bar.arrived[int32(n.id)]
	if !ok {
		n.mu.Unlock()
		n.fail(fmt.Errorf("node %d: release for barrier %d episode %d without a local arrival",
			n.id, m.Barrier, m.Episode))
		return
	}
	sy.relEpisode = m.Episode
	//dsmlint:ignore vtalias the release frame is kept only for re-serving duplicate arrivals, re-encoded verbatim and never written
	sy.lastRelease = m
	sy.bar = barAgg{}
	n.mu.Unlock()
	n.fanRelease(m, selfTok)
}

// departFrom synthesizes the local worker's departure reply from a
// release message.
func departFrom(rel *wire.Msg, token int64) *wire.Msg {
	return &wire.Msg{
		Kind: wire.KBarDepart, Token: token, Barrier: rel.Barrier, Episode: rel.Episode,
		//dsmlint:ignore vtalias the depart is consumed synchronously by the local worker, which clones via recordKnowledgeLocked before retaining
		VT: append([]int32(nil), rel.VT...), Notices: rel.Notices,
	}
}

// ---- per-writer interval knowledge ----

// recordOwnIntervalLocked appends a just-closed interval to this node's
// authoritative log. Caller holds Node.mu; idx is the fresh tick.
func (n *Node) recordOwnIntervalLocked(idx int32, pages []int32) {
	k := &n.sy.know[n.id]
	if idx != k.covered()+1 {
		n.fail(fmt.Errorf("node %d: own interval %d, log covers %d", n.id, idx, k.covered()))
		return
	}
	k.add(pages)
}

// recordKnowledgeLocked folds notices learned from a grant or release
// into the per-writer logs; each notice's pages are copied into its
// writer's log. Caller holds Node.mu.
func (n *Node) recordKnowledgeLocked(notices []wire.Notice) {
	if len(notices) == 0 {
		return
	}
	order := make([]int, 0, len(notices))
	for i := range notices {
		if int(notices[i].Writer) != n.id { // own log is authoritative
			order = append(order, i)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		x, y := &notices[order[i]], &notices[order[j]]
		return x.Writer < y.Writer || x.Writer == y.Writer && x.Index < y.Index
	})
	for _, i := range order {
		nt := &notices[i]
		k := &n.sy.know[nt.Writer]
		cov := k.covered()
		if nt.Index <= cov {
			continue
		}
		if nt.Index > cov+1 {
			n.fail(fmt.Errorf("node %d: notice gap for writer %d: have %d, got %d", n.id, nt.Writer, cov, nt.Index))
			return
		}
		k.add(nt.Pages)
	}
}

// noticesBetweenLocked returns the write notices of every interval
// covered by to but not by from, from local knowledge. Every log runs
// without gaps from its base to at least this node's vector time, so
// the notices cover (from, to] whole. The one thing skipped is a
// writer's history at or before its base, the rollback cut, which every
// vector time in the epoch already covers. Caller holds Node.mu.
func (n *Node) noticesBetweenLocked(from, to []int32) []wire.Notice {
	var out []wire.Notice
	for w := 0; w < n.nn; w++ {
		var lo, hi int32
		if w < len(from) {
			lo = from[w]
		}
		if w < len(to) {
			hi = to[w]
		}
		k := &n.sy.know[w]
		for idx := lo + 1; idx <= hi; idx++ {
			if idx <= k.base {
				continue
			}
			if idx > k.covered() {
				n.fail(fmt.Errorf("node %d: knowledge of writer %d ends at %d, grant needs %d",
					n.id, w, k.covered(), idx))
				return out
			}
			out = append(out, wire.Notice{Writer: int32(w), Index: idx, Pages: k.pages(idx)})
		}
	}
	return out
}

// ---- cluster abort ----

// abortCluster fails this node with err and broadcasts it so every peer
// unblocks immediately instead of waiting out its own timeout. The
// broadcast is best-effort — a peer the abort cannot reach (the dead or
// partitioned one) is torn down by the cluster anyway. The node fails
// first: a peer's abort can tear the cluster down, this node included,
// before the broadcast ends, and err must already be this node's error
// then, not the teardown's.
func (n *Node) abortCluster(err error) {
	n.fail(err)
	// Stamp the quorum term so receivers can fence an abort from a
	// deposed leader whose cluster view is stale.
	msg := &wire.Msg{Kind: wire.KAbort, Err: err.Error(), Term: n.mgr.rep.Leader().Term}
	for p := 0; p < n.nn; p++ {
		if p != n.id {
			n.send(p, msg)
		}
	}
}
