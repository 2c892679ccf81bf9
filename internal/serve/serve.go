// Package serve layers a sharded get/put key-value API on the live LRC
// DSM engine: keys hash to slots packed into DSM pages (configurable
// keys-per-page), contiguous page runs form shards, and each shard is
// guarded by one lock from the distributed lock plane — so mutual
// exclusion, write-notice propagation and diff transfer give every
// operation release-consistent (linearizable per key) semantics with no
// serving-specific protocol code. Each serving node runs a pool of
// executor goroutines pulling requests from per-node dispatch queues; a
// shard is pinned to one executor per node, so a shard's lock is never
// acquired concurrently from two goroutines of the same node (the lock
// plane tracks one holder per node), while different nodes contend
// through the ordinary home/forward/handoff path.
//
// Two execution modes:
//
//   - Direct (default): operations are acknowledged as soon as the
//     shard lock is released. This is the throughput/latency
//     configuration; `make bench-serve` times one Do on it. An op runs
//     one of two ways. When its executor is parked on an empty queue, no
//     other goroutine holds that executor's lane and the shard lock
//     re-acquires in place (no message), the caller borrows the lane and
//     runs the op itself. Otherwise the op is queued to the executor,
//     which also runs every acquire that needs a message.
//   - Durable: a single executor per node executes operations between
//     barrier episodes and acknowledges an operation only once the
//     barrier-aligned checkpoint covering it is stable on every node
//     (group commit). Under the PR 5 supervisor this makes acknowledged
//     writes survive node crashes: a rolled-back operation is still
//     pending, is re-executed after replay, and is acknowledged exactly
//     once.
package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/serve/hist"
)

// Config shapes the key space and the serving pools.
type Config struct {
	// Keys is the key-space size; must be a power of two (the slot
	// scrambler is a bijection over [0, Keys)).
	Keys uint64
	// KeysPerPage packs this many slots into each DSM page; the page
	// size must divide evenly into slots of >= 8 bytes.
	KeysPerPage int
	// Shards is the number of shard locks; capped at the page count so a
	// shard always owns whole pages (two shards never share a page).
	Shards int
	// Workers is the executor-goroutine pool size per node (direct mode;
	// durable mode always runs one executor on the node's worker).
	Workers int
	// Batch caps how many queued operations an executor drains and
	// groups by shard in one sweep.
	Batch int
	// QueueDepth is each dispatch queue's buffer.
	QueueDepth int
	// Route picks the serving node for an operation: "affinity" sends a
	// shard to the node owning its first page's home (lock and data home
	// mostly local), "any" round-robins (exercises forwarding and remote
	// diff pulls).
	Route string
	// Durable enables the group-commit episode loop; see the package
	// comment. The checkpoint cadence it acknowledges against is the
	// engine's own (the supervisor's CheckpointEvery).
	Durable bool
}

func (c Config) withDefaults(pagesz int) (Config, error) {
	if c.Keys == 0 {
		c.Keys = 1 << 15
	}
	if c.Keys&(c.Keys-1) != 0 {
		return c, fmt.Errorf("serve: Keys = %d, want a power of two", c.Keys)
	}
	if c.KeysPerPage == 0 {
		c.KeysPerPage = pagesz / 64
	}
	if c.KeysPerPage < 1 || pagesz%c.KeysPerPage != 0 || pagesz/c.KeysPerPage < 8 {
		return c, fmt.Errorf("serve: KeysPerPage = %d does not pack page size %d into >= 8-byte slots",
			c.KeysPerPage, pagesz)
	}
	npages := (c.Keys + uint64(c.KeysPerPage) - 1) / uint64(c.KeysPerPage)
	if c.Shards == 0 {
		c.Shards = 64
	}
	if uint64(c.Shards) > npages {
		c.Shards = int(npages)
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Durable {
		c.Workers = 1
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.Route == "" {
		c.Route = "affinity"
	}
	if c.Route != "affinity" && c.Route != "any" {
		return c, fmt.Errorf("serve: Route = %q, want affinity or any", c.Route)
	}
	return c, nil
}

// Store is the shared-memory layout of the key space: the value array,
// the shard locks, the barrier (durable mode) and the stop word. Build
// it with NewStore during cluster configuration, before Run.
type Store struct {
	cfg    Config
	nodes  int
	pagesz int
	stride uint64 // bytes per slot
	kpp    uint64
	npages uint64
	base   core.Addr
	stop   core.Addr // durable-mode shutdown word, its own page
	lock0  int       // first of cfg.Shards consecutive shard locks
	bar    int       // durable-mode episode barrier
}

// NewStore allocates the serving layout in m's shared memory. The page
// size is taken from m when it exposes one (the live cluster does).
func NewStore(m core.Mem, cfg Config) (*Store, error) {
	pagesz := core.DefaultPageSize
	if ps, ok := m.(interface{ PageSize() int }); ok {
		pagesz = ps.PageSize()
	}
	cfg, err := cfg.withDefaults(pagesz)
	if err != nil {
		return nil, err
	}
	st := &Store{
		cfg:    cfg,
		nodes:  m.Procs(),
		pagesz: pagesz,
		kpp:    uint64(cfg.KeysPerPage),
		stride: uint64(pagesz / cfg.KeysPerPage),
	}
	st.npages = (cfg.Keys + st.kpp - 1) / st.kpp
	st.base = m.AllocPage(int(st.npages) * pagesz)
	st.stop = m.AllocPage(8)
	st.lock0 = m.NewLocks(cfg.Shards)
	st.bar = m.NewBarrier()
	return st, nil
}

// slotOf scrambles a key into its slot: multiplication by an odd
// constant is a bijection mod the power-of-two key space, so distinct
// keys never collide while neighboring keys scatter across pages.
func (st *Store) slotOf(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) & (st.cfg.Keys - 1)
}

// pageOf returns the page index (within the value array) holding slot.
func (st *Store) pageOf(slot uint64) uint64 { return slot / st.kpp }

// addrOf returns the slot's shared-memory address.
func (st *Store) addrOf(slot uint64) core.Addr {
	return st.base + core.Addr(st.pageOf(slot)*uint64(st.pagesz)+(slot%st.kpp)*st.stride)
}

// shardOf block-maps pages onto shards, so a shard owns a contiguous
// page run and two shards never share a page (no cross-shard false
// sharing through twins/diffs).
func (st *Store) shardOf(pg uint64) int {
	return int(pg * uint64(st.cfg.Shards) / st.npages)
}

// shardNode is the affinity route for a shard: the home node of its
// first page. The value array is one allocation, and the cluster
// block-assigns page homes within an allocation with the same
// `index*nodes/span` map, so this lands the shard where its lock home
// and (most of) its page homes already are.
func (st *Store) shardNode(shard int) int {
	firstPg := (uint64(shard)*st.npages + uint64(st.cfg.Shards) - 1) / uint64(st.cfg.Shards)
	return int(firstPg * uint64(st.nodes) / st.npages)
}

// lockOf returns the DSM lock id guarding shard.
func (st *Store) lockOf(shard int) int { return st.lock0 + shard }

// KeyAddr returns the shared-memory address holding key's value —
// for post-run verification against a reference cluster via Peek.
func (st *Store) KeyAddr(key uint64) core.Addr { return st.addrOf(st.slotOf(key)) }

// Pages returns the value array's page count.
func (st *Store) Pages() int { return int(st.npages) }

// Resolved returns the configuration after defaulting, so callers can
// report the shard count, slot density and routing actually in effect.
func (st *Store) Resolved() Config { return st.cfg }

// op is one queued operation, recycled with its reply channel through
// Server.ops. It is the executor's from the queue until it is answered
// and its Do's otherwise: an executor reads nothing from an answered op.
type op struct {
	put     bool
	key     uint64
	val     uint64
	shard   int
	enq     time.Duration // enqueue stamp on the server's clock (Server.t0)
	episode int64         // durable mode: execution episode, for the ack floor
	ackVal  uint64        // result of the (durable mode: latest) execution
	resp    chan opResult // 1-buffered: an answer never blocks the executor
}

type opResult struct {
	val uint64
	err error
}

// serveCounter is the optional per-node stats hook (implemented by the
// live node): gets and puts executed, and how many of them ran inline.
type serveCounter interface {
	CountServe(gets, puts, inline int64)
}

// recoverer is the optional recovery probe (implemented by the live
// node): during replay the lock plane no-ops and reads are scratch, so
// the durable loop must not execute client operations; and the engine
// checkpoints at every CheckpointEvery'th barrier, which decides the
// ops a stable checkpoint covers (stableFloor).
type recoverer interface {
	Replaying() bool
	CheckpointEvery() int64
}

// laner is the optional per-goroutine token-lane hook (implemented by
// the live node): each executor goroutine acquires locks through its
// own lane so the lock plane's per-(origin, lane) duplicate windows
// keep their one-outstanding, strictly-increasing token invariant.
type laner interface {
	LaneWorker(lane int) core.Worker
}

// inPlacer is the optional non-blocking acquire (implemented by the live
// node's lane workers): it takes a lock only when that needs no message,
// and refuses otherwise.
type inPlacer interface{ LockInPlace(id int) bool }

// lane is one direct-mode executor's worker and the right to use it.
// Whoever holds mu may use w: the executor around every batch, a caller
// (which only ever TryLocks it) around the one op it runs inline. idle
// is set while the executor is parked in its receive with no op in
// hand; a caller borrows only then, so it never overtakes an executor
// that already dequeued an op and is waiting for its lane back.
type lane struct {
	mu   sync.Mutex
	w    core.Worker // set when execLoop starts, nil once it returns
	idle atomic.Bool
}

// Server dispatches operations to per-node executor pools over a
// configured Store. One Server serves one cluster run; Do may be called
// from any goroutine and implements the load generator's Driver.
//
// The hand-off rests on one invariant: every op that enters a queue is
// answered exactly once. So Do waits with a plain receive, and a reused
// op's reply channel is empty. A queue always has a consumer upholding
// it: the executor, which answers what it dequeued even when an engine
// panic unwinds it, then the drainer it hands the queue to, which gives
// everything queued or arriving later the server's error until
// Shutdown. (Durable mode answers an op once its checkpoint is stable,
// across supervisor restarts; only a supervised run that gives up
// leaves its pending ops, and their callers, waiting.) An op its caller
// runs inline enters no queue and owes no answer.
type Server struct {
	st     *Store
	cfg    Config
	queues [][]chan *op // [node][executor]
	lanes  [][]lane     // [node][executor], direct mode only
	ops    sync.Pool    // *op, each with its reply channel
	t0     time.Time    // origin of the enqueue stamps: one monotonic read each
	hist   hist.Hist
	rr     atomic.Uint64 // round-robin cursor for Route == "any"

	stopping atomic.Bool
	stopCh   chan struct{} // closed by Shutdown
	failedCh chan struct{} // closed on executor failure
	failOnce sync.Once
	stopOnce sync.Once

	errMu    sync.Mutex
	firstErr error
	panicVal any

	// pending, per node, holds durable-mode operations executed but not
	// yet covered by a stable checkpoint. Owned by the node's worker
	// goroutine; supervisor restarts serialize incarnations.
	pending [][]*op
}

// NewServer builds the dispatcher for a store.
func NewServer(st *Store) *Server {
	s := &Server{
		st:       st,
		cfg:      st.cfg,
		queues:   make([][]chan *op, st.nodes),
		pending:  make([][]*op, st.nodes),
		t0:       time.Now(),
		stopCh:   make(chan struct{}),
		failedCh: make(chan struct{}),
	}
	s.ops.New = func() any { return &op{resp: make(chan opResult, 1)} }
	if !st.cfg.Durable {
		s.lanes = make([][]lane, st.nodes)
	}
	for n := range s.queues {
		s.queues[n] = make([]chan *op, st.cfg.Workers)
		for e := range s.queues[n] {
			s.queues[n][e] = make(chan *op, st.cfg.QueueDepth)
		}
		if s.lanes != nil {
			s.lanes[n] = make([]lane, st.cfg.Workers)
		}
	}
	return s
}

// Store returns the server's shared-memory layout.
func (s *Server) Store() *Store { return s.st }

// HistSummary digests the server-side latency histogram: enqueue to the
// end of the batch (durable: the episode) that answered the operation.
func (s *Server) HistSummary() *hist.Summary { return s.hist.Summarize() }

// executorOf pins a shard to one executor per node.
func (s *Server) executorOf(shard int) int { return shard % s.cfg.Workers }

// nodeOf routes a shard to its serving node.
func (s *Server) nodeOf(shard int) int {
	if s.cfg.Route == "any" {
		return int(s.rr.Add(1) % uint64(s.st.nodes))
	}
	return s.st.shardNode(shard)
}

// Do executes one get (put=false, val ignored) or put and returns the
// read value (gets) or the stored value (puts). It blocks until the
// operation is acknowledged — in durable mode, until its checkpoint is
// stable cluster-wide. In direct mode it runs the op on the caller's
// goroutine when the op's executor would only have re-acquired the
// shard lock in place on its behalf (see lane).
func (s *Server) Do(put bool, key, val uint64) (uint64, error) {
	if s.stopping.Load() {
		return 0, fmt.Errorf("serve: server is shut down")
	}
	shard := s.st.shardOf(s.st.pageOf(s.st.slotOf(key)))
	node, e := s.nodeOf(shard), s.executorOf(shard)
	q := s.queues[node][e]
	enq := time.Since(s.t0)
	if ln := s.borrow(node, e, q); ln != nil {
		o := op{put: put, key: key, val: val, shard: shard, enq: enq}
		if ran, err := s.runInline(ln, node, e, &o); ran {
			return o.ackVal, err
		}
	}
	o := s.ops.Get().(*op)
	o.put, o.key, o.val, o.shard, o.enq = put, key, val, shard, enq
	select {
	case q <- o:
	default:
		// Full: wait for room, but not past a failure or Shutdown — the
		// op is in no queue yet, so nobody would answer it.
		select {
		case q <- o:
		case <-s.failedCh:
			return 0, s.err()
		case <-s.stopCh:
			return 0, fmt.Errorf("serve: server is shut down")
		}
	}
	r := <-o.resp
	if r.err == nil {
		s.ops.Put(o) // answered, so out of every batch and pending list
	}
	return r.val, r.err
}

// borrow takes executor e's lane on node for the caller if that
// executor is parked on an empty queue with nothing in hand and no other
// goroutine holds the lane, and returns it held; nil otherwise.
func (s *Server) borrow(node, e int, q chan *op) *lane {
	if s.lanes == nil {
		return nil
	}
	ln := &s.lanes[node][e]
	if !ln.idle.Load() || len(q) != 0 || !ln.mu.TryLock() {
		return nil
	}
	if ln.w == nil { // the executor has returned
		ln.mu.Unlock()
		return nil
	}
	return ln
}

// runInline runs o on the caller's goroutine under the lane it borrowed,
// and gives the lane back. It runs nothing and reports ran == false
// when the shard lock cannot be re-acquired in place: the op must then
// be queued, because only executors send acquire requests. An engine
// panic fails the server as an executor's would, and the caller gets
// the server's error.
func (s *Server) runInline(ln *lane, node, e int, o *op) (ran bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.fail(r, executorErr(node, e, r))
			ran, err = true, s.err()
		}
		ln.mu.Unlock()
	}()
	ip, ok := ln.w.(inPlacer)
	lk := s.st.lockOf(o.shard)
	if !ok || !ip.LockInPlace(lk) {
		return false, nil
	}
	o.exec(ln.w, s)
	ln.w.Unlock(lk)
	var puts int64
	if o.put {
		puts = 1
	}
	s.account(ln.w, []time.Duration{o.enq}, puts, 1)
	return true, nil
}

func executorErr(node, e int, r any) error {
	return fmt.Errorf("serve: node %d executor %d: %v", node, e, r)
}

// Shutdown stops the server: new operations are rejected, every
// operation already queued when it is called is executed and answered
// with its value, and then the NodeWorkers return (letting the cluster
// run complete). Do reads the stop flag once, on entry: the caller must
// not start a Do after Shutdown nor call Shutdown while a Do is still
// on its way into a queue — an op arriving after its executor's last
// sweep is never answered. Call after the load completes.
func (s *Server) Shutdown() {
	s.stopping.Store(true)
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wake()
}

// wake makes every executor parked on an empty queue re-read the stop
// and failure flags. The send need not succeed: a full queue has no
// parked consumer. runDurable shares queues[node][0] and polls instead.
func (s *Server) wake() {
	if s.cfg.Durable {
		return
	}
	for _, qs := range s.queues {
		for _, q := range qs {
			select {
			case q <- nil:
			default:
			}
		}
	}
}

func (s *Server) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.firstErr != nil {
		return s.firstErr
	}
	return fmt.Errorf("serve: server failed")
}

// fail records an executor failure and sends every executor on its way
// out; each hands its queue to a drainer, so every caller gets the error.
func (s *Server) fail(panicVal any, err error) {
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
		s.panicVal = panicVal
	}
	s.errMu.Unlock()
	s.failOnce.Do(func() { close(s.failedCh) })
	s.wake()
}

func (s *Server) failed() bool {
	select {
	case <-s.failedCh:
		return true
	default:
		return false
	}
}

// NodeWorker is the cluster worker function: run one serving node until
// Shutdown. Direct mode spawns the executor pool and waits; durable
// mode runs the group-commit episode loop on the worker goroutine
// itself (the supervisor re-invokes it per incarnation, and the loop is
// re-entrant: un-acknowledged operations survive in s.pending and are
// re-executed after replay).
func (s *Server) NodeWorker(w core.Worker) {
	if s.cfg.Durable {
		s.runDurable(w)
		return
	}
	node := w.ID()
	var wg sync.WaitGroup
	for e := 0; e < s.cfg.Workers; e++ {
		ew := w
		if ln, ok := w.(laner); ok {
			ew = ln.LaneWorker(e + 1) // lane 0 is the node's own worker goroutine
		}
		wg.Add(1)
		go func(e int, ew core.Worker) {
			defer wg.Done()
			s.execLoop(ew, node, e)
		}(e, ew)
	}
	wg.Wait()
	// An engine panic (abort, peer-down) happened on an executor
	// goroutine; re-raise it here so the cluster's worker recovery sees
	// the structured error, not a wedged run.
	s.errMu.Lock()
	pv := s.panicVal
	s.errMu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

// execLoop drains one executor queue until shutdown (direct mode). It
// parks in a plain receive; Shutdown and fail wake it with a nil. It
// holds its lane around every batch, and takes it back before it
// returns, so NodeWorker waits for a caller still running an op on it.
func (s *Server) execLoop(w core.Worker, node, e int) {
	q := s.queues[node][e]
	ln := &s.lanes[node][e]
	ln.mu.Lock()
	ln.w = w
	ln.mu.Unlock()
	held := false
	batch := make([]*op, 0, s.cfg.Batch)
	enq := make([]time.Duration, 0, s.cfg.Batch)
	defer func() {
		r := recover()
		if !held {
			ln.mu.Lock()
		}
		ln.w = nil
		ln.mu.Unlock()
		if r != nil {
			s.fail(r, executorErr(node, e, r))
		}
		if s.failed() {
			// Answer what this executor still holds (execBatch clears an
			// answered op's slot), then leave the queue a consumer.
			for _, o := range batch {
				if o != nil {
					o.resp <- opResult{err: s.err()}
				}
			}
			go s.drain(q)
		}
	}()
	for {
		batch = batch[:0]
		if s.failed() {
			return
		}
		if !s.stopping.Load() {
			ln.idle.Store(true)
			o := <-q
			ln.idle.Store(false)
			if o == nil {
				continue // woken: read the flags again
			}
			batch = append(batch, o)
		}
		if batch = s.fill(batch, q); len(batch) == 0 {
			return // stopping, and nothing is queued
		}
		ln.mu.Lock()
		held = true
		s.execBatch(w, batch, enq)
		held = false
		ln.mu.Unlock()
	}
}

// fill tops batch up to the cap from what is queued now, never blocking.
func (s *Server) fill(batch []*op, q chan *op) []*op {
	for len(batch) < s.cfg.Batch {
		select {
		case o := <-q:
			if o != nil {
				batch = append(batch, o)
			}
		default:
			return batch
		}
	}
	return batch
}

// drain is a failed executor's successor on its queue: it answers every
// op with the server's error until Shutdown has come and the queue is
// empty.
func (s *Server) drain(q chan *op) {
	for {
		select {
		case o := <-q:
			if o != nil {
				o.resp <- opResult{err: s.err()}
			}
		case <-s.stopCh:
			if len(q) == 0 {
				return
			}
		}
	}
}

// execBatch groups a drained batch by shard (stable, preserving arrival
// order within a shard) and executes each shard's run under one
// lock/unlock pair. enq is scratch for the enqueue stamps: latencies
// are recorded against one clock read at the end, when the ops are gone.
func (s *Server) execBatch(w core.Worker, batch []*op, enq []time.Duration) {
	if len(batch) > 1 {
		slices.SortStableFunc(batch, func(a, b *op) int { return a.shard - b.shard })
	}
	var puts int64
	for i := 0; i < len(batch); {
		shard := batch[i].shard
		lk := s.st.lockOf(shard)
		w.Lock(lk)
		for ; i < len(batch) && batch[i].shard == shard; i++ {
			o := batch[i]
			o.exec(w, s)
			if o.put {
				puts++
			}
			enq = append(enq, o.enq)
			batch[i] = nil // answered: not the unwinding executor's to answer again
			o.resp <- opResult{val: o.ackVal}
		}
		w.Unlock(lk)
	}
	s.account(w, enq, puts, 0)
}

// account records executed ops against one clock read: each one's
// latency from its enqueue stamp in the server histogram, and the
// counts on the node (inline of them ran on a borrowed lane).
func (s *Server) account(w core.Worker, enq []time.Duration, puts, inline int64) {
	now := time.Since(s.t0)
	for _, t := range enq {
		s.hist.Record(int64(now - t))
	}
	if sc, ok := w.(serveCounter); ok {
		sc.CountServe(int64(len(enq))-puts, puts, inline)
	}
}

// stableFloor is the highest exec tag (the local barrier count at
// execution time) whose effects a cluster-wide stable checkpoint is
// guaranteed to cover after this node departs its bars'th barrier. An
// op tagged E runs in engine episode E+1 and is first covered by the
// flagged crossing ceil((E+1)/every)*every. Each node captures
// that checkpoint AFTER departing the flagged barrier and confirms it
// with a blocking ckpt-done RPC before arriving at the next one — so
// departing crossing `bars` only proves every node confirmed flagged
// crossings <= bars-1. Acking against the flagged crossing itself (off
// by one) loses acknowledged writes when a crash rolls back to the
// previous cut.
func stableFloor(bars, every int64) int64 {
	f := bars - 1
	f -= f % every // newest flagged crossing everyone confirmed
	return f - 1   // tags E <= f-1 have cover(E) <= f
}

// runDurable is the group-commit episode loop (durable mode): execute a
// quantum of operations, cross the barrier (which captures and
// stabilizes the checkpoint), then acknowledge every operation whose
// episode the stable checkpoint covers. After a crash the supervisor
// rolls every node back to the stable episode and re-invokes this
// worker: the replay loop crosses suppressed barriers until the engine
// is live again, then every still-pending (never-acknowledged)
// operation is re-executed — a put rewrites the same value, a get
// re-reads — and acknowledged exactly once.
func (s *Server) runDurable(w core.Worker) {
	node := w.ID()
	q := s.queues[node][0]
	bars, every := int64(0), int64(1)
	if rp, ok := w.(recoverer); ok {
		every = max(rp.CheckpointEvery(), 1)
		for rp.Replaying() {
			w.Barrier(s.st.bar)
			bars++
		}
	}
	redo := s.pending[node] // un-acked survivors from the previous incarnation
	s.pending[node] = nil
	for {
		// Quantum: re-executions first (in original order), then fresh
		// operations up to the batch cap. Waiting briefly for the first
		// fresh op keeps idle nodes from spinning barriers; busy nodes
		// just wait for them at the barrier.
		batch := redo
		redo = nil
		if len(batch) == 0 && !s.stopping.Load() {
			select {
			case o := <-q:
				batch = append(batch, o)
			case <-time.After(200 * time.Microsecond):
			case <-s.failedCh:
				return
			}
		}
		batch = s.fill(batch, q)
		// Pend the whole batch before touching the DSM: a rollback
		// interrupt arrives as a panic out of a node operation, and
		// anything already dequeued must survive in pending to be
		// re-executed next incarnation, never lost.
		for _, o := range batch {
			o.episode = bars
		}
		s.pending[node] = append(s.pending[node], batch...)
		var gets, puts int64
		for _, o := range batch {
			lk := s.st.lockOf(o.shard)
			w.Lock(lk)
			o.exec(w, s)
			w.Unlock(lk)
			if o.put {
				puts++
			} else {
				gets++
			}
		}
		if sc, ok := w.(serveCounter); ok && gets+puts > 0 {
			sc.CountServe(gets, puts, 0)
		}
		if node == 0 && s.stopping.Load() && w.ReadU64(s.st.stop) == 0 {
			// All clients are done (Shutdown follows the load), so the
			// queues and pendings are quiescing; raise the cluster-wide
			// stop flag. The barrier propagates it to every node.
			w.WriteU64(s.st.stop, 1)
		}
		w.Barrier(s.st.bar)
		bars++
		// Acknowledge everything the now-stable checkpoint covers.
		floor := stableFloor(bars, every)
		now := time.Since(s.t0)
		keep := s.pending[node][:0]
		for _, o := range s.pending[node] {
			if o.episode <= floor {
				s.hist.Record(int64(now - o.enq))
				o.resp <- opResult{val: o.ackVal}
			} else {
				keep = append(keep, o)
			}
		}
		s.pending[node] = keep
		if w.ReadU64(s.st.stop) == 1 && len(s.pending[node]) == 0 && len(q) == 0 {
			// Every node reads the stop word at the same episode, and
			// Shutdown precedes it, so queues and pendings are empty
			// cluster-wide: all nodes exit after the same barrier.
			return
		}
	}
}

// exec performs o's access under the shard lock the caller holds and
// records the result for the ack (durable mode re-executes, so the
// field is overwritten and the final execution's value is acknowledged).
func (o *op) exec(w core.Worker, s *Server) {
	addr := s.st.addrOf(s.st.slotOf(o.key))
	if o.put {
		w.WriteU64(addr, o.val)
		o.ackVal = o.val
		return
	}
	o.ackVal = w.ReadU64(addr)
}
