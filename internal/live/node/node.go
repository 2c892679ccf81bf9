// Package node implements one node of the live DSM runtime: a
// goroutine-backed lazy-release-consistency engine executing the same
// protocol concepts the simulator models — twins, word diffs, vector
// timestamps, write notices — over a real transport.
//
// The live protocol is home-based LRC with a lazy release. Every page has
// a statically assigned home node. A release (lock release or barrier
// arrival) closes the write interval: each dirtied page is diffed against
// its twin and the diffs are sent to the pages' homes — and the release
// returns without waiting for the homes (flush.go keeps the flights until
// they are acknowledged; only a barrier arrival and the final flush drain
// them). Consistency is kept on the reader's side instead: nobody reads a
// copy older than the notices it has seen. Every page carries a
// per-writer need vector raised by each write notice the node receives
// and by its own interval closes; a fault (LI) or update pull (LH)
// carries it to the home, which answers only once it holds those
// versions, and a worker told about writes to a page homed on its own
// node waits, at its next access to the page, for them to land.
//
// Synchronization is decentralized (see sync.go): locks are home-based
// with TreadMarks-style ownership forwarding so grants travel directly
// from last holder to next requester, barriers combine up a fan-in tree
// rooted at node 0 and release down it, and the write notices a grant
// or release carries come from per-writer interval logs — each node
// keeps its own and learns the others' from grants and releases, whole
// within an epoch. What stays centralized is the manager — the liveness
// judge and the join/checkpoint coordinator — replicated on every node
// and served by the elected leader (see manager.go).
//
// Each node runs two goroutine roles of its own: the worker (application
// code, calling the core.Worker operations) and a dispatcher serving
// requests (page fetches, diff pulls, flushes, and the manager's).
// Inbound frames are handled where they land (deliver, the transport's
// frame handler — a TCP connection's reader, an in-process sender):
// replies go straight to their waiting requesters, the acks a frame
// carries retire flush flights, requests join the dispatcher's queue —
// except an in-process lock request, forward or flush, which its
// sender's goroutine handles in place while the dispatcher is idle.
// Workers never hold the node mutex across a message wait, and only the
// worker invalidates its own pages, so faults cannot race an
// invalidation.
//
// The paper's systems catch shared accesses with the VM hardware, so a
// hit on a valid page is free. Here a hit by the node's own worker is
// one atomic load of the page's state word and the access itself, with
// no mutex (see lpage and Node.hit); everything else an access can need
// — a fault, the first write of an interval, replay, an interrupt — and
// every access by a LaneWorker takes the node mutex.
package node

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/consensus"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// homeLogCap bounds the per-page diff log a home keeps for LH update
// pulls. When the log overflows, the oldest entries are pruned and a
// puller that needs them falls back to a full page copy.
const homeLogCap = 64

// inqDepth bounds the dispatcher's request queue. Requests in flight are
// bounded by a small multiple of the cluster size (each worker has at
// most one fault plus one flush fan-out outstanding), so this never
// fills in practice.
const inqDepth = 8192

// Config parameterizes one live node. All nodes of a cluster must be
// built with identical PageSize, NPages, Homes, NLocks, NBars and
// Protocol.
type Config struct {
	// PageSize is the shared page size in bytes (a power of two).
	PageSize int
	// NPages is the number of shared pages backing the address space.
	NPages int
	// Homes maps each page to its home node.
	Homes []int32
	// Init holds the initial contents of nonzero pages; each node
	// installs the pages it homes.
	Init map[page.ID][]byte
	// NLocks and NBars size the manager's lock and barrier tables.
	NLocks, NBars int
	// Protocol selects the acquire-side behaviour: core.LI invalidates
	// noticed pages, core.LH refreshes cached copies by pulling diffs
	// from the home. Other protocols are not supported live.
	Protocol core.Protocol
	// Observer, when non-nil, receives protocol events; a LiveObserver
	// also receives the live-only ones. Vector times are snapshotted for
	// it only when it is set.
	Observer core.Observer
	// RPCTimeout bounds every remote wait (default 30s); exceeding it
	// fails the run instead of hanging.
	RPCTimeout time.Duration
	// RetryBase is the delay before the first retransmission of an
	// unanswered RPC (default 200ms); it doubles per attempt up to
	// RetryMax (default 2s). Retransmits reuse the request's token, and
	// every receiver de-duplicates by it, so retries are idempotent. The
	// total wait stays bounded by RPCTimeout.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HeartbeatTimeout is the silence after which the manager leader
	// presumes a peer dead and aborts the whole cluster with a
	// PeerDownError (default 10s); negative disables failure detection.
	// A peer is heard when it acks the leader's consensus appends, which
	// go to every node each election timeout / 10 (the election timeout
	// is HeartbeatTimeout/4, at least 100ms).
	HeartbeatTimeout time.Duration
	// Recover configures the node's manager replica, epoch fence and
	// checkpoints (see recover.go, manager.go). Every node runs all three;
	// the zero value takes no checkpoints and gives the replica a fresh
	// in-memory store and consensus slot.
	Recover RecoverConfig
}

// Page state bits (lpage.state).
const (
	// pageReadable: the copy is valid.
	pageReadable uint32 = 1 << iota
	// pageWritable: valid and already twinned whole this interval, so a
	// write needs no bookkeeping.
	pageWritable
)

// lpage is one node's view of one shared page. Every field is guarded by
// Node.mu, with one exception: the node's own worker loads state and
// reads or writes words of data without it (Node.hit). That is safe
// because
//
//   - state only changes under Node.mu, and on a node whose worker runs
//     lock-free only that worker takes a bit away (setState's callers), so
//     the worker always sees its own latest store. A request handler
//     (the dispatcher, or a sender's goroutine in place; see deliver) sets
//     pageReadable at one site — homeRecordLocked, when the flush a home
//     page was waiting for lands — after writing the data it publishes;
//   - a page is readable only while its version (copyVT, homeVT on its
//     home) covers need: applyNotices clears the bit in the critical
//     section that raises need, and installPage, pullDiffs and
//     homeRecordLocked set it only once the version has caught up;
//   - the only other goroutines that touch a resident page are the
//     request handlers', under Node.mu and only on pages homed here. They read
//     the committed view (committed): the twin in the dirty regions, data
//     only outside them and only under a partial twin. The worker writes
//     data lock-free only under a whole twin (dirty == page.Full, which
//     pageWritable requires), so a handler never reads what the worker
//     is writing. Twin creation, region saves, MakeDiffMasked and
//     twin release stay under Node.mu;
//   - a handler stores into data at one site, homeRecordLocked
//     applying a remote diff. For a data-race-free program that store and
//     the worker's accesses to the same word are ordered through Node.mu,
//     which every acquire and release takes. A deliberately racy read
//     (tsp's unlocked bound) can run concurrently with it, so the store
//     is page.Diff.ApplyAtomic and the worker's load page.Buf.LoadU64.
type lpage struct {
	data page.Buf
	// twin holds the committed bytes of the regions set in dirty (a
	// page.Region mask) and unspecified bytes elsewhere, where data is
	// still the committed view. A write under Node.mu saves each region
	// its word touches the first time; the own worker's saves the whole page
	// (page.Full), because its later writes go lock-free. Nil, with dirty
	// zero, while the page has no open interval.
	twin  page.Buf
	dirty uint64
	// state holds the page* bits; see setState.
	state atomic.Uint32
	// copyVT[w] is the highest interval index of writer w whose
	// modifications to this page are incorporated in data.
	copyVT vc.VC
	// need[w] is the highest interval index of writer w this node has
	// been told modified the page: by a write notice (applyNotices) or by
	// closing its own interval. Nil until first raised. The page is
	// readable only while its version — copyVT, or homeVT on the page's
	// home — covers need (see the list above).
	need vc.VC

	// Home-side state (only on the page's home node).
	log     []wire.Diff // recent diffs, in application order
	logBase vc.VC       // highest interval index per writer pruned from log
	homeVT  vc.VC       // highest interval index per writer applied here
}

func (ps *lpage) valid() bool { return ps.state.Load()&pageReadable != 0 }

// raiseNeed records that writer w's interval idx modified the page.
// Call under Node.mu.
func (ps *lpage) raiseNeed(w int, idx int32) {
	if ps.need == nil {
		ps.need = vc.New(len(ps.copyVT))
	}
	if idx > ps.need[w] {
		ps.need[w] = idx
	}
}

// covers reports whether version vector have reaches need in every
// slot. need may come off the wire, so its length is not trusted.
func covers(have vc.VC, need []int32) bool {
	for w, idx := range need {
		if idx > 0 && (w >= len(have) || have[w] < idx) {
			return false
		}
	}
	return true
}

// setState publishes the page's validity and, from dirty, whether the
// current interval already twinned it whole. Call under Node.mu after
// every change to either.
func (ps *lpage) setState(valid bool) {
	var s uint32
	if valid {
		s = pageReadable
		if ps.dirty == page.Full {
			s |= pageWritable
		}
	}
	ps.state.Store(s)
}

// committed copies the page's committed view — its contents as of its
// last interval close plus the diffs applied since — into dst, as much
// as fits: the twin in the dirty regions, data elsewhere. Under a whole
// twin it reads the twin alone: the own worker may be writing data
// lock-free. Call under Node.mu.
func (ps *lpage) committed(dst []byte) {
	if ps.dirty == page.Full {
		copy(dst, ps.twin)
		return
	}
	copy(dst, ps.data)
	page.CopyRegions(dst, ps.twin, ps.dirty)
}

// dropTwin ends the page's open interval: the twin goes back to the pool
// and the mask clears. Call under Node.mu.
func (ps *lpage) dropTwin() {
	page.FreeTwin(ps.twin)
	ps.twin, ps.dirty = nil, 0
}

// runError wraps a fatal protocol error panicking out of a worker
// operation; the cluster recovers it at the worker goroutine boundary
// (via the Unwrap method, keeping the type itself unexported).
type runError struct{ err error }

func (e runError) Unwrap() error { return e.err }

func (e runError) String() string { return e.err.Error() }

// Node is one live DSM node.
type Node struct {
	cfg       Config
	id        int
	nn        int
	pageShift uint
	tr        transport.Transport
	obs       core.Observer
	lobs      LiveObserver // obs, when it takes the live-only events

	mu    sync.Mutex
	vt    vc.VC
	pages []lpage
	mod   []page.ID
	// sy is this node's share of the distributed synchronization plane
	// (locks homed here or owned here, barrier-tree aggregation,
	// per-writer interval knowledge). Guarded by mu.
	sy *syncState

	// Capture-gate state (under mu; see recover.go). While gateEpisode is
	// non-zero, incoming flushes stamped with that episode or later are
	// buffered in gated — unapplied and unacknowledged — until the
	// worker's checkpoint capture completes.
	gateEpisode int64
	gated       []*wire.Msg

	// Reader-side gating (under mu; see flush.go). parked holds the page
	// and diff requests this home cannot answer yet because its copy is
	// older than the version the requester was told about; homeWake is
	// non-nil while a local worker waits for a flush to land on a page
	// homed here, and is closed by the next recorded flush.
	parked   []parkedReq
	homeWake chan struct{}

	// hitReads and hitWrites count the worker's lock-free hits since it
	// last entered the engine; foldHits moves them into stats. Only the
	// worker goroutine touches them.
	hitReads, hitWrites int64

	// Poll parking (see Backoff); the last two are worker-private.
	gen       atomic.Uint64 // turns finished, the dispatcher's and in place
	idle      atomic.Int32  // non-zero while the own worker is parked
	wake      chan struct{} // one-token wake-up slot
	heldLocks int           // the own worker's open Lock calls
	pollGen   uint64        // gen when its last Lock began

	// Worker-private recovery state: the worker's count of departed
	// barrier episodes (stamps outgoing flushes, flags checkpoint
	// episodes) and the replay machinery (see recover.go). Only the
	// worker goroutine touches these.
	barsDone      int64
	replaying     bool
	replayTarget  int64
	replayScratch map[page.ID]page.Buf
	// lastSnap is the node's previous checkpoint, whose unchanged page
	// images the next one shares (see snapshotLocked).
	lastSnap *ckpt.NodeSnapshot

	// epoch is the cluster recovery epoch this engine currently belongs
	// to; deliver and the dispatcher fence frames from other epochs.
	epoch atomic.Uint32

	// Worker interrupt: the supervisor arms it to roll every worker back
	// for recovery. intrFlag is the fast path checked on every shared
	// access; intrCh unblocks workers parked in RPC waits.
	intrMu   sync.Mutex
	intrFlag atomic.Bool
	intrCh   chan struct{}
	intrErr  error

	// ctl runs functions on the dispatcher goroutine, which owns the
	// manager state the supervisor must read and reset.
	ctl chan func()

	// inq is the dispatcher's request queue; queued counts the requests
	// in it or being taken from it, raised before each enqueue and
	// lowered once the request is handled. turn is the dispatch turn:
	// the dispatcher holds it around every request, ctl function and
	// liveness sweep, and an in-process request handled in place on its
	// sender's goroutine holds it instead (deliver).
	inq    chan *wire.Msg
	queued atomic.Int32
	turn   sync.Mutex

	pmu     sync.Mutex
	pending map[int64]chan *wire.Msg
	nextTok int64

	// Flush flights (under pmu; see flush.go): the unacknowledged
	// KWriteNotices messages to each home, oldest first, how many there
	// are in all (written under pmu, read without it), the channel a
	// worker in awaitFlights waits on (closed by the next retirement), and
	// whether the retransmission timer is running.
	flights    [][]flushFlight
	inflight   atomic.Int32
	retired    chan struct{}
	retryArmed bool
	retryTimer *time.Timer

	// Owed flush acks (home side; see flush.go): owed[w], under pmu, holds
	// the flushes from writer w applied here and not yet acknowledged;
	// owing[w] is set while it is non-empty, so a send to a peer owed
	// nothing pays one atomic load.
	owed  []owedAcks
	owing []atomic.Bool

	// mgr is this node's manager replica (the elected leader serves).
	mgr *manager

	// leaderHint is this node's cache of the manager's current leader —
	// the node manager requests go to — updated by the local replica's
	// leadership changes and by KNotLeader redirects.
	leaderHint atomic.Int32

	// repOut holds one buffered outbound lane per peer for consensus
	// frames. The replica's event loop must never block on a send — a
	// TCP dial to a dead peer stalls for dial-retry backoff, which would
	// freeze elections — so Send enqueues here (drop-on-full) and a
	// per-peer drainer goroutine does the actual transport write.
	repOut []chan *wire.Msg

	// rngState seeds the retry-jitter mixer (see jitter).
	rngState atomic.Uint64

	// hbCheck wakes the dispatcher to run a liveness sweep, so the check
	// reads manager state from the goroutine that owns it.
	hbCheck chan struct{}

	stats Stats

	done      chan struct{}
	closeOnce sync.Once
	errMu     sync.Mutex
	err       error
	wg        sync.WaitGroup
}

// Compile-time check: a Node is a drop-in worker handle for the apps.
var _ core.Worker = (*Node)(nil)

// New builds (but does not start) a node over the given transport. The
// transport's Self/N define the node's identity and cluster size.
func New(tr transport.Transport, cfg Config) *Node {
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 30 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 200 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	n := &Node{
		cfg:     cfg,
		id:      tr.Self(),
		nn:      tr.N(),
		tr:      tr,
		obs:     cfg.Observer,
		vt:      vc.New(tr.N()),
		pages:   make([]lpage, cfg.NPages),
		inq:     make(chan *wire.Msg, inqDepth),
		pending: make(map[int64]chan *wire.Msg),
		flights: make([][]flushFlight, tr.N()),
		owed:    make([]owedAcks, tr.N()),
		owing:   make([]atomic.Bool, tr.N()),
		intrCh:  make(chan struct{}),
		wake:    make(chan struct{}, 1),
		ctl:     make(chan func()),
		done:    make(chan struct{}),
		sy:      newSyncState(cfg.NLocks, tr.N()),
		hbCheck: make(chan struct{}, 1),
	}
	n.lobs, _ = cfg.Observer.(LiveObserver)
	rc := &n.cfg.Recover
	if rc.Store == nil {
		rc.Store = ckpt.NewMemStore()
	}
	if rc.Consensus == nil {
		rc.Consensus = consensus.NewStable()
	}
	n.epoch.Store(rc.Epoch)
	for ps := cfg.PageSize; ps > 1; ps >>= 1 {
		n.pageShift++
	}
	n.stats.Node = n.id
	// Home pages are resident and valid from the start; everything else
	// starts invalid and is fetched on first use.
	for pg := range n.pages {
		ps := &n.pages[pg]
		ps.copyVT = vc.New(n.nn)
		if int(cfg.Homes[pg]) != n.id {
			continue
		}
		ps.data = page.NewBuf(cfg.PageSize)
		if init, ok := cfg.Init[page.ID(pg)]; ok {
			copy(ps.data, init)
		}
		ps.setState(true)
		ps.homeVT = vc.New(n.nn)
		ps.logBase = vc.New(n.nn)
	}
	n.mgr = newManager(n)
	n.leaderHint.Store(int32(rc.LeaderHint))
	voters := rc.Voters
	if voters == nil && n.nn < 3 {
		// Two voters cannot outlive the failure a voting group exists
		// for: node 0 votes alone and commits without a round trip.
		voters = []int{0}
	}
	// Outbound consensus frames go through one buffered lane per peer,
	// drained by a dedicated goroutine: a send to a dead peer can stall
	// in the transport's dial retries for hundreds of milliseconds, and
	// the replica's event loop must never block on it (a candidate stuck
	// dialing the dead leader cannot collect votes, and every survivor
	// stalling in lock-step livelocks the election). Per-peer lanes
	// preserve per-peer ordering; a full lane drops, like the wire would
	// — the protocol is self-retrying.
	n.repOut = make([]chan *wire.Msg, n.nn)
	for p := range n.repOut {
		if p != n.id {
			n.repOut[p] = make(chan *wire.Msg, 64)
		}
	}
	n.mgr.rep = consensus.New(consensus.Config{
		Self:            n.id,
		N:               n.nn,
		Voters:          voters,
		ElectionTimeout: n.electionTimeout(),
		Seed:            rc.Seed + int64(rc.Incarnation)*7919,
		Send:            n.consensusSend,
		Apply: func(_ int64, cmd []byte) {
			if err := n.mgr.applyCmd(cmd); err != nil {
				n.abortCluster(err)
			}
		},
		SnapshotState: func() []byte { return n.mgr.st.encodeState() },
		InstallState: func(app []byte) {
			if err := n.mgr.installState(app); err != nil {
				n.abortCluster(err)
			}
		},
		LeaderChange: func(_ int64, leader int, _ bool) {
			if leader >= 0 {
				n.leaderHint.Store(int32(leader))
			}
		},
		Bootstrap: true, // ignored once the Stable slot holds a term
		Counters: consensus.Counters{
			Terms:       &n.stats.ConsensusTerms,
			Elections:   &n.stats.ConsensusElections,
			Commits:     &n.stats.ConsensusCommits,
			ConfChanges: &n.stats.ConsensusConfChanges,
			Quarantines: &n.stats.ConsensusSlotQuarantines,
		},
	}, rc.Consensus)
	return n
}

// electionTimeout is the manager replica's. It rides the
// failure-detection budget: well under the heartbeat timeout, so a
// failover completes before anyone's silence verdict could fire, but
// long enough that a busy leader's appends keep elections quiet.
func (n *Node) electionTimeout() time.Duration {
	return max(n.cfg.HeartbeatTimeout/4, 100*time.Millisecond)
}

// consensusSend enqueues one outbound consensus frame on its peer's
// buffered lane. A full lane drops the frame — the replica's event loop
// must never block on a stalled transport, and the protocol is
// self-retrying — but never silently: ConsensusLaneDrops counts every
// discarded frame so sustained backpressure is visible in the stats.
func (n *Node) consensusSend(to int, m *wire.Msg) {
	if to < 0 || to >= n.nn || to == n.id || n.repOut[to] == nil {
		return
	}
	select {
	case n.repOut[to] <- m:
	default:
		atomic.AddInt64(&n.stats.ConsensusLaneDrops, 1)
	}
}

// Start registers the node's frame handler with the transport (frames
// that arrived before are handed over first) and launches the dispatcher
// goroutine, the manager replica, and on clusters of more than one node
// the liveness sweep, which judges silent peers while this node leads.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.dispatch()
	n.tr.Handle(n.deliver)
	n.mgr.rep.Start()
	for p, lane := range n.repOut {
		if lane == nil {
			continue
		}
		n.wg.Add(1)
		go func(p int, lane chan *wire.Msg) {
			defer n.wg.Done()
			for {
				select {
				case m := <-lane:
					n.send(p, m)
				case <-n.done:
					return
				}
			}
		}(p, lane)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		<-n.done
		n.mgr.rep.Stop()
	}()
	if n.nn > 1 && n.cfg.HeartbeatTimeout > 0 {
		n.wg.Add(1)
		go n.monitor()
	}
}

// monitor wakes the dispatcher to sweep for silent peers at the
// leader's append cadence (consensus HeartbeatEvery's default), the
// fastest a peer's stamp can move; the sweep itself runs on the
// dispatcher goroutine and only acts while this node's replica leads.
func (n *Node) monitor() {
	defer n.wg.Done()
	tick := time.NewTicker(n.electionTimeout() / 10)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			select {
			case n.hbCheck <- struct{}{}:
			default:
			}
		case <-n.done:
			return
		}
	}
}

// Close shuts the node down. It does not close the transport (the
// cluster owns it).
func (n *Node) Close() { n.fail(nil) }

// Err returns the first fatal error the node hit, if any.
func (n *Node) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.err
}

// Wait blocks until the dispatcher and the node's other goroutines have
// exited (after Close).
func (n *Node) Wait() { n.wg.Wait() }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.stats.Snapshot() }

// CountServe credits serving-path activity (internal/serve) to this
// node's counters: gets and puts executed, and how many of them their
// caller ran inline on a borrowed lane. Safe from any goroutine.
func (n *Node) CountServe(gets, puts, inline int64) {
	if gets != 0 {
		atomic.AddInt64(&n.stats.ServeGets, gets)
	}
	if puts != 0 {
		atomic.AddInt64(&n.stats.ServePuts, puts)
	}
	if inline != 0 {
		atomic.AddInt64(&n.stats.ServeInline, inline)
	}
}

// Replaying reports whether the node is re-executing suppressed work
// toward its replay target after a rollback. Worker-goroutine use only
// (the field is worker-private, like barsDone).
func (n *Node) Replaying() bool { return n.replaying }

// CheckpointEvery returns the barrier cadence of the node's checkpoints,
// 0 when it takes none.
func (n *Node) CheckpointEvery() int64 { return n.cfg.Recover.Every }

// LaneWorker returns a view of this node for one additional requester
// goroutine (a serving executor): lock acquires issue their RPCs on a
// private token lane, preserving the strictly-increasing,
// one-outstanding invariant the receivers' per-(origin, lane) duplicate
// windows rely on. lane must be positive, below 1<<15, and used by one
// goroutine at a time; lane 0 is the node's own worker goroutine. A lane
// may pass from one goroutine to another, but only across a
// happens-before edge (a serving executor lends its lane to a caller
// under a mutex both take): the duplicate windows order a lane's tokens,
// not the goroutines that issue them.
// Goroutines sharing a node must never acquire the same lock
// concurrently; their releases need no serialization (a release vector
// time covering a sibling's interval whose flush is still in flight is
// safe, because the next reader waits at the home for it).
//
// Lane workers access shared memory under the node mutex, never
// lock-free: one lane's Unlock diffs and un-twins every page the node
// dirtied, including pages another lane is still writing, and a
// lock-free write landing after that diff would sit in a page with no
// twin and never be flushed. Under the mutex the late write finds the
// twin gone and re-twins. For the same reason the node's own worker
// (lane 0, the *Node itself) must not touch shared memory while lane
// workers are running. A lane's write saves only the regions its word
// touches in the twin (see lpage.twin), so a lane-written page never becomes
// pageWritable.
func (n *Node) LaneWorker(lane int) core.Worker {
	return laneWorker{Node: n, lane: int64(lane)}
}

// laneWorker overrides the operations that differ on a shared node: the
// acquire's request tokens are laned, and the accessors and the release
// skip the own worker's lock-free path and its private hit counters.
// Everything else delegates to the node.
type laneWorker struct {
	*Node
	lane int64
}

func (lw laneWorker) Lock(id int)   { lw.Node.lockLane(id, lw.lane) }
func (lw laneWorker) Unlock(id int) { lw.Node.unlock(id) }

// LockInPlace is Lock's zero-message path alone: it acquires id only if
// that needs no message (the node owns the lock, no successor is queued
// and it is not replaying) and reports whether it did. It never blocks.
func (lw laneWorker) LockInPlace(id int) bool { return lw.Node.lockInPlace(id) }

// Backoff never parks a lane: the poll state is the own worker's.
func (lw laneWorker) Backoff(int64) {}

func (lw laneWorker) ReadU64(a core.Addr) uint64     { return lw.Node.readLocked(a) }
func (lw laneWorker) WriteU64(a core.Addr, v uint64) { lw.Node.writeLocked(a, v, false) }
func (lw laneWorker) ReadI64(a core.Addr) int64      { return int64(lw.Node.readLocked(a)) }
func (lw laneWorker) WriteI64(a core.Addr, v int64)  { lw.Node.writeLocked(a, uint64(v), false) }
func (lw laneWorker) ReadF64(a core.Addr) float64 {
	return math.Float64frombits(lw.Node.readLocked(a))
}
func (lw laneWorker) WriteF64(a core.Addr, v float64) {
	lw.Node.writeLocked(a, math.Float64bits(v), false)
}

func (n *Node) fail(err error) {
	if err != nil {
		n.errMu.Lock()
		if n.err == nil {
			n.err = err
		}
		n.errMu.Unlock()
	}
	n.closeOnce.Do(func() {
		close(n.done)
		n.stopRetry()
	})
}

// ---- core.Worker ----

// ID implements core.Worker.
func (n *Node) ID() int { return n.id }

// N implements core.Worker.
func (n *Node) N() int { return n.nn }

// Compute implements core.Worker. Simulated computation has no live
// analogue: the real work is the protocol itself.
func (n *Node) Compute(int64) {}

func (n *Node) locate(a core.Addr) (page.ID, int) {
	if n.intrFlag.Load() {
		n.panicInterrupted()
	}
	pg := page.ID(a >> n.pageShift)
	if int(pg) >= n.cfg.NPages {
		panic(runError{fmt.Errorf("node %d: address %d beyond shared space", n.id, a)})
	}
	return pg, n.pageOff(a)
}

// hit returns a's page when the node's own worker may access the word
// lock-free: the address is an aligned word inside the shared space, the
// worker is neither replaying nor interrupted, and the page's state has
// the bit the access needs (pageReadable or pageWritable). Anything else
// returns nil and the access takes the locked path. See lpage for why
// the lock-free access is safe.
func (n *Node) hit(a core.Addr, need uint32) *lpage {
	pg := uint64(a) >> n.pageShift
	if pg >= uint64(len(n.pages)) || a&(page.WordSize-1) != 0 || n.replaying || n.intrFlag.Load() {
		return nil
	}
	if ps := &n.pages[pg]; ps.state.Load()&need != 0 {
		return ps
	}
	return nil
}

// pageOff is a's byte offset within its page.
func (n *Node) pageOff(a core.Addr) int { return int(a) & (n.cfg.PageSize - 1) }

// foldHits moves the worker's lock-free hit counts into the node's
// stats. The own worker's handle calls it whenever it leaves application
// code for the engine — a missed access, Lock, Unlock, Barrier,
// FinalFlush — which is also everywhere an interrupt or abort can start
// unwinding it, so the totals are exact however the worker ends.
func (n *Node) foldHits() {
	if n.hitReads != 0 {
		atomic.AddInt64(&n.stats.SharedReads, n.hitReads)
		n.hitReads = 0
	}
	if n.hitWrites != 0 {
		atomic.AddInt64(&n.stats.SharedWrites, n.hitWrites)
		n.hitWrites = 0
	}
}

// ReadU64 implements core.Worker.
func (n *Node) ReadU64(a core.Addr) uint64 {
	if ps := n.hit(a, pageReadable); ps != nil {
		n.hitReads++
		return ps.data.LoadU64(n.pageOff(a))
	}
	n.foldHits()
	return n.readLocked(a)
}

// WriteU64 implements core.Worker. The lock-free store is a plain one:
// the page has a twin, so nothing else reads data (see lpage).
func (n *Node) WriteU64(a core.Addr, v uint64) {
	if ps := n.hit(a, pageWritable); ps != nil {
		n.hitWrites++
		ps.data.PutU64(n.pageOff(a), v)
		return
	}
	n.foldHits()
	n.writeLocked(a, v, true)
}

// readLocked is the read path under the node mutex: the only one for
// lane workers, and the own worker's path for everything hit rejects.
func (n *Node) readLocked(a core.Addr) uint64 {
	pg, off := n.locate(a)
	if n.replaying {
		return n.scratchPage(pg).U64(off)
	}
	atomic.AddInt64(&n.stats.SharedReads, 1)
	n.mu.Lock()
	ps := &n.pages[pg]
	for !ps.valid() {
		n.mu.Unlock()
		n.fault(pg)
		n.mu.Lock()
	}
	v := ps.data.U64(off)
	n.mu.Unlock()
	return v
}

// writeLocked is the write path under the node mutex (see readLocked).
// The first write of an interval to a page takes a twin buffer, and the
// first write to each region saves that region's committed bytes in it
// (both regions, when an unaligned word straddles a boundary);
// own, the node's own worker, saves the whole page at once, which makes
// the page pageWritable for its lock-free writes.
func (n *Node) writeLocked(a core.Addr, v uint64, own bool) {
	pg, off := n.locate(a)
	if n.replaying {
		n.scratchPage(pg).PutU64(off, v)
		return
	}
	atomic.AddInt64(&n.stats.SharedWrites, 1)
	n.mu.Lock()
	ps := &n.pages[pg]
	for !ps.valid() {
		n.mu.Unlock()
		n.fault(pg)
		n.mu.Lock()
	}
	if ps.twin == nil {
		ps.twin = page.GetTwin(len(ps.data))
		n.mod = append(n.mod, pg)
		atomic.AddInt64(&n.stats.TwinsCreated, 1)
		if n.obs != nil {
			n.obs.TwinCreated(n.id, pg)
		}
	}
	m := page.Full
	if !own {
		// An unaligned word can reach into the next region.
		m = page.Region(len(ps.data), off) | page.Region(len(ps.data), off+page.WordSize-1)
	}
	if m &^= ps.dirty; m != 0 {
		page.CopyRegions(ps.twin, ps.data, m)
		ps.dirty |= m
		ps.setState(true)
	}
	ps.data.PutU64(off, v)
	n.mu.Unlock()
}

// The F64 and I64 accessors repeat the hit test instead of calling
// ReadU64/WriteU64, which are too large to inline: a hit stays one call
// deep from the application.

// ReadF64 implements core.Worker.
func (n *Node) ReadF64(a core.Addr) float64 {
	if ps := n.hit(a, pageReadable); ps != nil {
		n.hitReads++
		return math.Float64frombits(ps.data.LoadU64(n.pageOff(a)))
	}
	n.foldHits()
	return math.Float64frombits(n.readLocked(a))
}

// WriteF64 implements core.Worker.
func (n *Node) WriteF64(a core.Addr, v float64) {
	if ps := n.hit(a, pageWritable); ps != nil {
		n.hitWrites++
		ps.data.PutF64(n.pageOff(a), v)
		return
	}
	n.foldHits()
	n.writeLocked(a, math.Float64bits(v), true)
}

// ReadI64 implements core.Worker.
func (n *Node) ReadI64(a core.Addr) int64 {
	if ps := n.hit(a, pageReadable); ps != nil {
		n.hitReads++
		return int64(ps.data.LoadU64(n.pageOff(a)))
	}
	n.foldHits()
	return int64(n.readLocked(a))
}

// WriteI64 implements core.Worker.
func (n *Node) WriteI64(a core.Addr, v int64) {
	if ps := n.hit(a, pageWritable); ps != nil {
		n.hitWrites++
		ps.data.PutU64(n.pageOff(a), uint64(v))
		return
	}
	n.foldHits()
	n.writeLocked(a, uint64(v), true)
}

// Lock, Unlock and Barrier (core.Worker) live in sync.go with the rest
// of the distributed synchronization plane.

// FinalFlush closes the last write interval after the worker returns and
// waits for every home to acknowledge, so the homes hold the final memory
// image. The interval is not reported to anyone: nothing synchronizes
// after it.
func (n *Node) FinalFlush() {
	n.foldHits()
	n.closeInterval()
	n.drainFlights()
}

// CopyHomePage copies the committed contents of a page homed at this
// node into dst (as much as fits).
func (n *Node) CopyHomePage(pg page.ID, dst []byte) {
	n.mu.Lock()
	n.pages[pg].committed(dst)
	n.mu.Unlock()
}

// ---- fault handling ----

// fault makes an unreadable page readable again. A page homed here is
// only ever unreadable while a flush this node has been told about is
// still on its way (applyNotices), so the worker waits for it to land.
// Any other page is fetched whole from its home and installed, rebasing
// any uncommitted local writes (twin present) on top.
func (n *Node) fault(pg page.ID) {
	home := int(n.cfg.Homes[pg])
	if home == n.id {
		n.awaitHome(pg)
		return
	}
	atomic.AddInt64(&n.stats.PageFaults, 1)
	if n.lobs != nil {
		n.lobs.PageFault(n.id, pg)
	}
	n.mu.Lock()
	need := n.pages[pg].need.Clone()
	n.mu.Unlock()
	t0 := time.Now()
	reply := n.rpc(home, &wire.Msg{Kind: wire.KPageReq, Page: int32(pg), Need: need})
	atomic.AddInt64(&n.stats.FaultWaitNs, time.Since(t0).Nanoseconds())
	if n.installPage(pg, reply.Data, reply.VT) {
		atomic.AddInt64(&n.stats.PageFetches, 1)
	}
}

// installPage overwrites the local copy with a fresh home copy. When the
// page has a twin — uncommitted local writes, possible under false
// sharing — those writes are re-applied on top and the twin's saved
// regions are reset to the fresh copy, so the eventual diff carries
// exactly the local writes.
//
// The home answered for the need the request carried; a sibling lane's
// acquire may have raised the page's need while the reply was in flight.
// A copy older than the current need is refused — the page stays as it
// was and installPage reports false — so the caller asks again.
func (n *Node) installPage(pg page.ID, data []byte, homeVT []int32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := &n.pages[pg]
	if !covers(homeVT, ps.need) {
		return false
	}
	if ps.data == nil {
		ps.data = page.NewBuf(n.cfg.PageSize)
	}
	if ps.twin != nil {
		own := page.MakeDiffMasked(pg, ps.twin, ps.data, ps.dirty)
		copy(ps.data, data)
		page.CopyRegions(ps.twin, data, ps.dirty)
		own.Apply(ps.data)
	} else {
		copy(ps.data, data)
	}
	ps.copyVT.Join(homeVT)
	ps.setState(true)
	if n.obs != nil {
		n.obs.CopyAdopted(n.id, pg, append([]int32(nil), homeVT...), nil)
	}
	return true
}

// ---- interval close and flush ----

// closeInterval ends the current write interval, if any writes happened:
// it diffs every dirtied page, records the diffs of pages homed here,
// sends each remote home its share as one KWriteNotices flight, and
// returns without waiting for the acknowledgements (flush.go owns the
// flights from here on; the only wait is its flow control, when
// maxInflight earlier flushes are still unacknowledged). Nothing that
// later learns of the interval can read a copy that misses it: the
// interval's index goes into every dirtied page's need vector here, and
// into the need vectors of whoever receives its write notices (see
// lpage.need).
func (n *Node) closeInterval() {
	n.awaitFlights(maxInflight - 1)
	n.mu.Lock()
	if len(n.mod) == 0 {
		n.mu.Unlock()
		return
	}
	idx := n.vt.Tick(n.id)
	pages := make([]int32, 0, len(n.mod))
	var perHome [][]wire.Diff
	var diffBytes int64
	for _, pg := range n.mod {
		ps := &n.pages[pg]
		d := page.MakeDiffMasked(pg, ps.twin, ps.data, ps.dirty)
		ps.dropTwin()
		ps.setState(ps.valid())
		diffBytes += int64(d.SizeBytes())
		wd := wire.Diff{Writer: int32(n.id), Index: idx, D: d}
		if home := int(n.cfg.Homes[pg]); home == n.id {
			n.homeRecordLocked(ps, wd, false)
		} else {
			if perHome == nil {
				perHome = make([][]wire.Diff, n.nn)
			}
			perHome[home] = append(perHome[home], wd)
		}
		ps.copyVT.Set(n.id, idx)
		// A later re-fetch of this page (another writer's notice can
		// invalidate it) must not come back without these writes.
		ps.raiseNeed(n.id, idx)
		pages = append(pages, int32(pg))
	}
	n.mod = n.mod[:0]
	// The closed interval extends this node's own per-writer log: the
	// source every lock grant and barrier arrival draws its write
	// notices of this node from.
	n.recordOwnIntervalLocked(idx, pages)
	// Flights are registered under mu so that each home's unacknowledged
	// diffs stay in interval order even when lanes release concurrently.
	out := n.launchFlights(perHome)
	if n.obs != nil {
		// Under mu: no grant, barrier arrival or home diff can carry the
		// interval to a peer before the observer has it. A kill the
		// event triggers (crash.go) closes this node and its transport,
		// which takes neither mu nor anything held while waiting for it.
		ids := make([]page.ID, len(pages))
		for i, p := range pages {
			ids[i] = page.ID(p)
		}
		n.obs.IntervalClosed(n.id, idx, n.vt.Clone(), ids)
	}
	n.mu.Unlock()

	atomic.AddInt64(&n.stats.Intervals, 1)
	atomic.AddInt64(&n.stats.DiffsCreated, int64(len(pages)))
	atomic.AddInt64(&n.stats.DiffBytes, diffBytes)
	for i := range out {
		n.trySendEpoch(out[i].to, out[i].msg(), out[i].epoch)
	}
}

// homeRecordLocked records one interval diff at the home: updates the
// home version vector and appends to the page's diff log (pruning the
// oldest entries past homeLogCap). applyData additionally applies the
// diff to the resident copy — and its twin, keeping the committed view
// consistent — which the home's own intervals do not need. This is the
// one store into a resident page that does not come from the node's own
// worker, hence the atomic apply (see lpage).
func (n *Node) homeRecordLocked(ps *lpage, wd wire.Diff, applyData bool) {
	if applyData {
		wd.D.ApplyAtomic(ps.data)
		if ps.twin != nil {
			wd.D.Apply(ps.twin)
		}
	}
	//dsmlint:ignore vtalias Decode allocates fresh payload buffers per frame and the frame is not retained elsewhere, so the home log's entries are sole owners
	ps.log = append(ps.log, wd)
	if len(ps.log) > homeLogCap {
		drop := len(ps.log) - homeLogCap
		for _, old := range ps.log[:drop] {
			if old.Index > ps.logBase.Get(int(old.Writer)) {
				ps.logBase.Set(int(old.Writer), old.Index)
			}
		}
		// Re-slicing keeps a full log's prune O(1) per record; append's
		// regrowth pays the copy once per cap records. The dropped slots
		// are cleared so their diffs can be collected before that.
		clear(ps.log[:drop])
		ps.log = ps.log[drop:]
	}
	w := int(wd.Writer)
	if wd.Index > ps.homeVT.Get(w) {
		ps.homeVT.Set(w, wd.Index)
	}
	if wd.Index > ps.copyVT.Get(w) {
		ps.copyVT.Set(w, wd.Index)
	}
	if !ps.valid() && covers(ps.homeVT, ps.need) {
		ps.setState(true)
		if n.homeWake != nil {
			close(n.homeWake)
			n.homeWake = nil
		}
	}
}

// ---- acquire-side notice processing ----

// applyNotices records the learned intervals, joins the granted vector
// time, and processes the write notices, which cover every interval
// between this node's vector time and the grant time. Every noticed
// page's need vector is raised, whatever the page's state, and a
// readable page whose copy no longer covers its need stops being
// readable in the same critical section that advances the vector time
// — so neither this worker nor a sibling lane (whose next acquire will
// advertise the new vector time and be told nothing about these pages)
// can read the old copy. How the page becomes readable again is the
// protocol: under LI it is fetched at the next access; under LH cached
// copies are refreshed here — from the diffs the grant carried when
// they make the copy current, in this same critical section
// (applyCarriedLocked), else by pulling the missing diffs from the
// home; a page homed on this node waits, at its next access, for the
// flush to land (the writer's release did not).
func (n *Node) applyNotices(grantVT []int32, notices []wire.Notice, carried []wire.Diff) {
	var pulls []page.ID
	n.mu.Lock()
	n.recordKnowledgeLocked(notices)
	n.vt.Join(grantVT)
	if n.obs != nil {
		n.obs.ClockAdvanced(n.id, n.vt.Clone())
	}
	for _, nt := range notices {
		w := int(nt.Writer)
		for _, p32 := range nt.Pages {
			pg := page.ID(p32)
			ps := &n.pages[pg]
			ps.raiseNeed(w, nt.Index)
			homed := int(n.cfg.Homes[pg]) == n.id
			have := ps.copyVT
			if homed {
				have = ps.homeVT
			}
			if have.CoversInterval(w, nt.Index) || !ps.valid() {
				continue
			}
			ps.setState(false)
			if homed {
				continue // homeRecordLocked restores it
			}
			if n.cfg.Protocol == core.LH {
				pulls = append(pulls, pg)
				continue
			}
			atomic.AddInt64(&n.stats.Invalidations, 1)
		}
	}
	if len(carried) > 0 {
		pulls = n.applyCarriedLocked(pulls, carried)
	}
	n.mu.Unlock()
	for _, pg := range pulls {
		n.pullDiffs(pg)
	}
}

// applyCarriedLocked makes current, from a grant's carried diffs, each
// page of stale (copies that were readable until this grant's notices)
// whose copy plus its carried diffs covers the page's need, and returns
// the others for pullDiffs. All or nothing per page: a bundle that falls
// short applies nothing. A readable copy already holds every interval up
// to the acquirer's request time, and the granter carried the home's log
// entries from there to the grant time, so applying the entries the copy
// lacks, in log order, leaves it holding every interval of the page up
// to the grant time. Caller holds Node.mu.
func (n *Node) applyCarriedLocked(stale []page.ID, carried []wire.Diff) []page.ID {
	rest := stale[:0]
	var applied int64
	for _, pg := range stale {
		ps := &n.pages[pg]
		if !carriedCovers(ps, pg, carried) {
			rest = append(rest, pg)
			continue
		}
		for _, wd := range carried {
			w := int(wd.Writer)
			if wd.D.Page != pg || ps.copyVT.CoversInterval(w, wd.Index) {
				continue
			}
			wd.D.Apply(ps.data)
			if ps.twin != nil {
				wd.D.Apply(ps.twin)
			}
			ps.copyVT.Set(w, wd.Index)
			applied++
			if n.obs != nil {
				n.obs.DiffApplied(n.id, pg, w, wd.Index, nil)
			}
		}
		ps.setState(true)
		atomic.AddInt64(&n.stats.GrantDiffs, 1)
	}
	atomic.AddInt64(&n.stats.DiffsApplied, applied)
	return rest
}

// carriedCovers reports whether pg's copy plus the carried diffs for it
// reach the page's need in every slot.
func carriedCovers(ps *lpage, pg page.ID, carried []wire.Diff) bool {
	for w, idx := range ps.need {
		if ps.copyVT.CoversInterval(w, idx) {
			continue
		}
		found := false
		for _, wd := range carried {
			if wd.D.Page == pg && int(wd.Writer) == w && wd.Index >= idx {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// pullDiffs brings the cached copy of pg up to date from its home (LH
// update path) and makes it readable again: the home, once it holds the
// versions the page's need vector names, serves the diffs past our
// coverage from its log, or a full copy if the log was pruned past it.
// If a sibling lane's acquire raised the need again while the reply was
// in flight, the pull repeats.
func (n *Node) pullDiffs(pg page.ID) {
	ps := &n.pages[pg]
	for {
		n.mu.Lock()
		have, need := ps.copyVT.Clone(), ps.need.Clone()
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.DiffPulls, 1)
		reply := n.rpc(int(n.cfg.Homes[pg]), &wire.Msg{Kind: wire.KDiffReq, Page: int32(pg), VT: have, Need: need})
		if reply.Data != nil {
			if n.installPage(pg, reply.Data, reply.VT) {
				atomic.AddInt64(&n.stats.PageFetches, 1)
				return
			}
			continue
		}
		n.mu.Lock()
		applied := int64(0)
		for _, wd := range reply.Diffs {
			w := int(wd.Writer)
			if ps.copyVT.CoversInterval(w, wd.Index) {
				continue
			}
			wd.D.Apply(ps.data)
			if ps.twin != nil {
				wd.D.Apply(ps.twin)
			}
			applied++
			if n.obs != nil {
				n.obs.DiffApplied(n.id, pg, w, wd.Index, nil)
			}
		}
		ps.copyVT.Join(reply.VT)
		current := covers(ps.copyVT, ps.need)
		if current {
			ps.setState(true)
		}
		n.mu.Unlock()
		atomic.AddInt64(&n.stats.DiffsApplied, applied)
		if current {
			return
		}
	}
}

// ---- messaging ----

// isReply reports whether a kind is a response routed straight to a
// waiting requester (bypassing the dispatcher queue).
func isReply(k wire.Kind) bool {
	switch k {
	case wire.KPageReply, wire.KDiffReply, wire.KAck, wire.KLockGrant, wire.KBarDepart,
		wire.KJoinGrant, wire.KNotLeader, wire.KConfAck:
		return true
	}
	return false
}

// laneShift partitions the token space: the low 48 bits carry the
// node's strictly-increasing sequence (shared by every goroutine), the
// high bits a per-goroutine lane id. Receivers' duplicate windows key
// on (origin, lane), so concurrent requester goroutines — the serving
// executors — don't interleave tokens inside one monotonic window.
const laneShift = 48

func (n *Node) newLaneToken(lane int64) (int64, chan *wire.Msg) {
	ch := make(chan *wire.Msg, 1)
	n.pmu.Lock()
	n.nextTok++
	tok := lane<<laneShift | n.nextTok
	n.pending[tok] = ch
	n.pmu.Unlock()
	return tok, ch
}

// rpc sends a request and blocks for its reply, retransmitting with
// bounded exponential backoff while none arrives. Retries reuse the
// request's token: receivers de-duplicate by (From, Token) — the manager
// through its per-client table, homes through per-writer version checks
// — so a retransmitted request is never executed twice, and a late
// duplicate reply finds its token already resolved and is dropped.
func (n *Node) rpc(to int, m *wire.Msg) *wire.Msg { return n.rpcLane(to, m, 0) }

// rpcLane is rpc with the request's token stamped into a lane (see
// laneShift); the reply carries the token back, so routing and reply
// de-duplication are lane-oblivious. Exceeding RPCTimeout fails the run
// with an error naming the operation and peer instead of hanging.
func (n *Node) rpcLane(to int, m *wire.Msg, lane int64) *wire.Msg {
	if r, ok := n.rpcTry(to, m, n.cfg.RPCTimeout, lane); ok {
		return r
	}
	panic(runError{fmt.Errorf("node %d: rpc timeout: %v to node %d after %v (token %d, attempt %d)",
		n.id, m.Kind, to, n.cfg.RPCTimeout, m.Token, m.Attempt)})
}

// jitter draws a uniform duration in [d/2, d] from a lock-free
// splitmix-style mixer, decorrelating the retransmission schedules of
// workers that all lost replies to the same event (a died leader, a
// dropped batch): synchronized retry storms re-collide, jittered ones
// spread. Safe from any goroutine.
func (n *Node) jitter(d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return d
	}
	x := n.rngState.Add(0x9e3779b97f4a7c15) + uint64(n.id)<<32
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	half := uint64(d) / 2
	return time.Duration(half + x%(half+1))
}

// rpcTry sends a request and waits at most wait for its reply,
// retransmitting on a jittered exponential backoff schedule; it is the
// one retransmission loop, rpc's too. It returns (nil, false) on expiry,
// for callers that re-resolve their target and retry as a fresh request
// (mgrRPC chasing the quorum's leader). A node failure aborts the worker
// via runError. The pending token is withdrawn on expiry or interrupt,
// so a straggling reply is dropped as a duplicate. The request's token
// is stamped into lane (see laneShift), so concurrent requesters — the
// worker on lane 0, the supervisor's membership RPCs on confLane — each
// keep their own monotonic dedup window at the receiver.
func (n *Node) rpcTry(to int, m *wire.Msg, wait time.Duration, lane int64) (*wire.Msg, bool) {
	tok, ch := n.newLaneToken(lane)
	m.Token = tok
	n.trySend(to, m)
	deadline := time.Now().Add(wait)
	backoff := n.cfg.RetryBase
	timer := time.NewTimer(n.jitter(backoff))
	defer timer.Stop()
	intr := n.intrChan()
	for attempt := 0; ; {
		select {
		case r := <-ch:
			return r, true
		case <-intr:
			n.withdraw(tok)
			n.panicInterrupted()
		case <-n.done:
			// A reply may have been routed concurrently with shutdown.
			select {
			case r := <-ch:
				return r, true
			default:
			}
			err := n.Err()
			if err == nil {
				err = fmt.Errorf("node %d: shut down while waiting for %v reply from %d", n.id, m.Kind, to)
			}
			panic(runError{err})
		case <-timer.C:
		}
		if !time.Now().Before(deadline) {
			n.withdraw(tok)
			// The reply may have raced the withdrawal.
			select {
			case r := <-ch:
				return r, true
			default:
			}
			return nil, false
		}
		attempt++
		if attempt > 255 {
			m.Attempt = 255
		} else {
			m.Attempt = uint8(attempt)
		}
		atomic.AddInt64(&n.stats.RPCRetries, 1)
		n.trySend(to, m)
		backoff *= 2
		if backoff > n.cfg.RetryMax {
			backoff = n.cfg.RetryMax
		}
		w := n.jitter(backoff)
		if rem := time.Until(deadline); rem < w {
			w = rem
			if w <= 0 {
				w = time.Millisecond
			}
		}
		timer.Reset(w)
	}
}

// withdraw abandons a pending token so a late reply is dropped instead
// of landing on a reused channel.
func (n *Node) withdraw(tok int64) {
	n.pmu.Lock()
	delete(n.pending, tok)
	n.pmu.Unlock()
}

// trySend transmits m, treating transport errors as transient — the
// retransmission schedule recovers from them, so most callers ignore the
// returned error — except a closed transport, which means the cluster is
// shutting down.
func (n *Node) trySend(to int, m *wire.Msg) error { return n.trySendEpoch(to, m, n.epoch.Load()) }

// trySendEpoch is trySend stamping a given recovery epoch (see
// sendEpoch).
func (n *Node) trySendEpoch(to int, m *wire.Msg, epoch uint32) error {
	err := n.sendEpoch(to, m, epoch)
	if err == nil || !errors.Is(err, transport.ErrClosed) {
		return err
	}
	if e := n.Err(); e != nil {
		err = e
	}
	panic(runError{fmt.Errorf("node %d: %v to %d aborted: %w", n.id, m.Kind, to, err)})
}

// send encodes and transmits m. Messages to self bypass the transport:
// replies are routed to their waiter, requests join the dispatcher
// queue (node 0's worker talking to its own manager).
func (n *Node) send(to int, m *wire.Msg) error { return n.sendEpoch(to, m, n.epoch.Load()) }

// sendEpoch is send stamping a given recovery epoch instead of the
// current one: a flush flight is retransmitted by a timer that outlives
// the worker, so it carries the epoch it was built in and a copy resent
// across a rollback is fenced like any other pre-rollback frame.
func (n *Node) sendEpoch(to int, m *wire.Msg, epoch uint32) error {
	n.stamp(m, epoch)
	if to == n.id {
		atomic.AddInt64(&n.stats.MsgsSent, 1)
		atomic.AddInt64(&n.stats.MsgsRecv, 1)
		// Deliver a shallow copy: a retransmission mutates the sender's
		// Msg (From, Attempt) while the dispatcher may still hold this
		// delivery, exactly as a wire transport would re-encode it.
		mc := *m
		if isReply(mc.Kind) {
			n.routeReply(&mc)
			return nil
		}
		return n.enqueue(&mc)
	}
	// Whatever goes to a writer carries the flush acks owed to it.
	var acks []int64
	if n.owing[to].Load() {
		var buf [8]int64
		acks = n.takeAcks(to, epoch, buf[:0])
		atomic.AddInt64(&n.stats.AcksCarried, int64(len(acks)))
	}
	return n.transmit(to, m, acks)
}

// stamp sets m's envelope: the sender and the recovery epoch.
func (n *Node) stamp(m *wire.Msg, epoch uint32) {
	m.From = int32(n.id)
	m.Epoch = epoch
}

// transmit encodes m, carrying acks, and hands it to the transport.
func (n *Node) transmit(to int, m *wire.Msg, acks []int64) error {
	b := wire.EncodeAcks(m, acks)
	atomic.AddInt64(&n.stats.MsgsSent, 1)
	atomic.AddInt64(&n.stats.BytesSent, int64(len(b)))
	if len(m.Data) > 0 {
		atomic.AddInt64(&n.stats.DataBytes, int64(len(m.Data)))
	}
	for i := range m.Diffs {
		atomic.AddInt64(&n.stats.DataBytes, int64(m.Diffs[i].D.SizeBytes()))
	}
	if n.lobs != nil {
		n.lobs.MsgSent(n.id, to, m.Kind, len(b))
	}
	// Transport errors are not fatal: a request's retransmission schedule
	// recovers from transient failures, a lost reply is re-served when
	// the requester retries, and a genuinely dead peer is converted into
	// a clean abort by the RPC timeout or the manager's failure detector.
	return n.tr.Send(to, b)
}

func (n *Node) routeReply(m *wire.Msg) {
	n.pmu.Lock()
	ch := n.pending[m.Token]
	delete(n.pending, m.Token)
	n.pmu.Unlock()
	if ch != nil {
		ch <- m
		return
	}
	// No waiter: a duplicate or late reply to a token already resolved
	// (its first copy won, or the RPC timed out). Dropping it here is the
	// requester-side half of retry idempotence.
	atomic.AddInt64(&n.stats.DupReplies, 1)
}

// deliver is the transport's frame handler, run on the goroutine the
// frame arrived on: it routes replies to their waiters, retires the
// flush flights the frame acknowledges, handles a lock request, forward
// or flush from an in-process sender in place when the dispatcher is
// idle (handleInPlace), and queues every other request for the
// dispatcher.
func (n *Node) deliver(f transport.Frame) {
	m, err := wire.Decode(f.Payload)
	if err != nil {
		n.fail(fmt.Errorf("node %d: bad frame from %d: %w", n.id, f.From, err))
		return
	}
	atomic.AddInt64(&n.stats.MsgsRecv, 1)
	atomic.AddInt64(&n.stats.BytesRecv, int64(len(f.Payload)))
	// Epoch fence: a frame from a previous recovery epoch — a delayed
	// or retransmitted message from before a rollback, possibly from a
	// dead incarnation whose tokens collide with the live one's — must
	// not reach the waiter tables, the flights or the dispatcher.
	if m.Epoch != n.epoch.Load() {
		atomic.AddInt64(&n.stats.StaleFrames, 1)
		return
	}
	if len(m.Acks) > 0 {
		n.retireAcks(int(m.From), m.Acks)
	}
	switch m.Kind {
	case wire.KVoteReq, wire.KVoteResp, wire.KAppend, wire.KAppendAck:
		// Consensus traffic bypasses the dispatcher: the replica runs its
		// own event loop and its protocol is self-retrying, so a full
		// inbox may simply drop.
		n.mgr.rep.Deliver(m)
		return
	case wire.KAck:
		if m.Token == 0 {
			return // a standalone carrier of flush acks, retired above
		}
	}
	if isReply(m.Kind) {
		n.routeReply(m)
		return
	}
	switch m.Kind {
	case wire.KLockReq, wire.KLockForward, wire.KWriteNotices:
		if f.OnSender && n.handleInPlace(m) {
			return
		}
	}
	n.enqueue(m)
}

// enqueue queues request m for the dispatcher. The count rises first: a
// request its sender sends after m sees it and queues behind m.
func (n *Node) enqueue(m *wire.Msg) error {
	n.queued.Add(1)
	select {
	case n.inq <- m:
		return nil
	case <-n.done:
		n.queued.Add(-1)
		return transport.ErrClosed
	}
}

// handleInPlace handles request m on the calling goroutine, an
// in-process sender's, if nothing is queued and it gets the dispatch
// turn, and reports whether it did; the caller then need not pay a
// goroutine hop to the dispatcher. A request its sender sent earlier is
// either finished or still counted in queued, so none is overtaken. A
// node whose turn is held up the stack — a chain of in-place handlers
// that came back to it — queues instead. The handler only sends (never
// trySend: a panic would unwind the sender) and emits no event a crash
// schedule kills on (DESIGN.md §9.7).
func (n *Node) handleInPlace(m *wire.Msg) bool {
	if n.queued.Load() != 0 || !n.turn.TryLock() {
		return false
	}
	if n.queued.Load() != 0 {
		n.turn.Unlock()
		return false
	}
	n.handle(m)
	atomic.AddInt64(&n.stats.InlineRequests, 1)
	n.turn.Unlock()
	n.endTurn()
	return true
}

// dispatch serves protocol requests and liveness sweeps until shutdown,
// each in a dispatch turn.
func (n *Node) dispatch() {
	defer n.wg.Done()
	for {
		select {
		case m := <-n.inq:
			n.turn.Lock()
			n.handle(m)
			n.queued.Add(-1)
			n.turn.Unlock()
		case fn := <-n.ctl:
			n.turn.Lock()
			fn()
			n.turn.Unlock()
		case <-n.hbCheck:
			n.turn.Lock()
			n.checkLiveness()
			n.turn.Unlock()
		case <-n.done:
			return
		}
		n.endTurn()
	}
}

// endTurn closes a turn, the dispatcher's or an in-place one: with
// nothing queued it sends the acks still owed, then it wakes a parked
// poller.
func (n *Node) endTurn() {
	if len(n.inq) == 0 {
		n.sendOwedAcks()
	}
	n.handled()
}

func (n *Node) handle(m *wire.Msg) {
	// Re-check the epoch fence: the epoch may have been bumped after
	// deliver passed this message but before its turn began.
	if m.Epoch != n.epoch.Load() {
		atomic.AddInt64(&n.stats.StaleFrames, 1)
		return
	}
	switch m.Kind {
	case wire.KPageReq:
		n.handlePageReq(m)
	case wire.KDiffReq:
		n.handleDiffReq(m)
	case wire.KWriteNotices:
		n.handleWriteNotices(m)
	case wire.KAbort:
		// Term fence: a deposed leader's stale silence verdict must not
		// kill a cluster that already moved on to a newer term.
		if m.Term > 0 && m.Term < n.mgr.rep.Leader().Term {
			atomic.AddInt64(&n.stats.StaleFrames, 1)
			return
		}
		n.fail(&RemoteAbortError{From: int(m.From), Reason: m.Err})
	case wire.KLockReq:
		n.handleLockReq(m)
	case wire.KLockForward:
		n.handleLockForward(m)
	case wire.KBarArrive:
		n.handleBarArrive(m)
	case wire.KBarRelease:
		n.handleBarRelease(m)
	case wire.KJoinReq, wire.KSnapReq, wire.KSnapPush, wire.KSnapSeal, wire.KResume, wire.KCkptDone, wire.KConfChange:
		n.mgr.handle(m)
	default:
		n.fail(fmt.Errorf("node %d: unexpected request kind %v", n.id, m.Kind))
	}
}

// handlePageReq serves a full committed copy of a page homed here — once
// the copy holds every version the requester was told about (m.Need);
// until then the request is parked (see parkLocked). Uncommitted local
// writes are left out (lpage.committed); remote diffs are applied to
// both data and twin.
func (n *Node) handlePageReq(m *wire.Msg) {
	pg := page.ID(m.Page)
	n.mu.Lock()
	ps := &n.pages[pg]
	if !covers(ps.homeVT, m.Need) {
		n.parkLocked(m)
		n.mu.Unlock()
		return
	}
	data := make([]byte, len(ps.data))
	ps.committed(data)
	hvt := ps.homeVT.Clone()
	n.mu.Unlock()
	reply := &wire.Msg{Kind: wire.KPageReply, Token: m.Token, Page: m.Page, VT: hvt, Data: data}
	if err := n.send(int(m.From), reply); err != nil {
		return
	}
}

// handleDiffReq serves the diffs of a page homed here that the requester
// (whose per-writer coverage is m.VT) is missing, parking the request
// like handlePageReq while the home is behind m.Need. If the log has
// been pruned past the requester's coverage, a full copy is served
// instead.
func (n *Node) handleDiffReq(m *wire.Msg) {
	pg := page.ID(m.Page)
	n.mu.Lock()
	ps := &n.pages[pg]
	if !covers(ps.homeVT, m.Need) {
		n.parkLocked(m)
		n.mu.Unlock()
		return
	}
	pruned := false
	for w := 0; w < n.nn; w++ {
		var have int32
		if w < len(m.VT) {
			have = m.VT[w]
		}
		if have < ps.logBase.Get(w) {
			pruned = true
			break
		}
	}
	reply := &wire.Msg{Kind: wire.KDiffReply, Token: m.Token, Page: m.Page, VT: ps.homeVT.Clone()}
	if pruned {
		reply.Data = make([]byte, len(ps.data))
		ps.committed(reply.Data)
	} else {
		for _, wd := range ps.log {
			if w := int(wd.Writer); w < len(m.VT) && wd.Index <= m.VT[w] {
				continue
			}
			reply.Diffs = append(reply.Diffs, wd)
		}
	}
	n.mu.Unlock()
	if err := n.send(int(m.From), reply); err != nil {
		return
	}
}

// handleWriteNotices applies a flush's diffs to the pages homed here,
// answers the parked requests that were waiting for them, and
// acknowledges. The sender retransmits while the ack is missing, and a
// flush repeats the sender's older unacknowledged diffs for its pages,
// so a diff the home already holds (by its per-writer version) is
// skipped: re-applying it could clobber a newer write that landed on the
// same words in between. The ack is owed rather than sent: it rides the
// next frame to the writer — often the grant for a lock request queued
// behind the flush — or, failing that, a standalone ack once a turn
// ends with nothing queued (the checkpoint capture's drain, outside any
// turn, sends its acks when it is done).
func (n *Node) handleWriteNotices(m *wire.Msg) {
	var applied int64
	n.mu.Lock()
	// Capture gate: a flush from a sender that already departed the
	// flagged episode is post-cut — buffer it unapplied and, crucially,
	// unacknowledged, so the sender keeps retransmitting while the
	// checkpoint captures the pre-barrier state. The capture drains the
	// buffer (re-applications are version-checked no-ops).
	if n.gateEpisode > 0 && m.Episode >= n.gateEpisode {
		//dsmlint:ignore vtalias the gated frame is buffered whole and untouched until the capture drains it; its handler owns decoded frames outright
		n.gated = append(n.gated, m)
		n.mu.Unlock()
		return
	}
	for i := range m.Diffs {
		wd := m.Diffs[i]
		ps := &n.pages[wd.D.Page]
		if wd.Index <= ps.homeVT.Get(int(wd.Writer)) {
			continue
		}
		n.homeRecordLocked(ps, wd, true)
		applied++
		if n.obs != nil {
			n.obs.DiffApplied(n.id, wd.D.Page, int(wd.Writer), wd.Index, nil)
		}
	}
	var ready []parkedReq
	if applied > 0 {
		ready = n.unparkLocked()
	}
	n.mu.Unlock()
	// Always ack — including pure duplicates, whose original ack was lost.
	n.oweAck(int(m.From), m.Token, m.Epoch)
	// The parked requesters are on someone's critical path; the ack no
	// longer is (and rides their replies to the writer, if any).
	for i := range ready {
		n.handle(ready[i].msg())
	}
	atomic.AddInt64(&n.stats.DiffsApplied, applied)
	if applied == 0 && len(m.Diffs) > 0 {
		// Nothing new in the whole flush: a retransmission or a duplicate.
		atomic.AddInt64(&n.stats.DupRequests, 1)
	}
}
