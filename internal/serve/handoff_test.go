package serve

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/core"
)

// The tests here pin the hand-off invariant — every op that enters a
// queue is answered exactly once — against a scripted core.Worker, so
// each failure is the server's own and not the engine's.

// fakeMem is a one-node core.Mem with nothing behind it; the store only
// needs addresses and ids. The methods NewStore never calls stay nil.
type fakeMem struct{ core.Mem }

func (fakeMem) AllocPage(int) core.Addr { return 0 }
func (fakeMem) NewLocks(int) int        { return 0 }
func (fakeMem) NewBarrier() int         { return 0 }
func (fakeMem) Procs() int              { return 1 }

// fakeWorker is a core.Worker over a word array: Lock and LockInPlace
// can be scripted to panic on their Nth call or to block until a gate
// opens, and LockInPlace to refuse. Executors and the callers borrowing
// their lanes share it, hence the mutex; each executor's lane is a
// fakeLane view of it. It allocates nothing per call unless writes is
// set.
type fakeWorker struct {
	core.Worker // the methods serve never calls stay nil

	mu             sync.Mutex
	mem            []uint64
	writes         map[core.Addr][]uint64 // non-nil: per address, in execution order
	locks          int                    // Lock calls so far
	inPlaces       int                    // LockInPlace calls so far
	held           []bool
	panicAt        int           // Lock call that panics; 0 = never
	panicInPlaceAt int           // LockInPlace call that panics; 0 = never
	refuseInPlace  bool          // LockInPlace refuses, so every op queues
	gate           chan struct{} // non-nil: acquires wait for it to close
	entered        chan struct{} // non-nil: signalled on every acquire's entry

	inLane []atomic.Bool // per lane: a goroutine is between an acquire and its Unlock
	inline atomic.Int64  // ops CountServe was told ran inline
}

func newFakeWorker(s *Server) *fakeWorker {
	return &fakeWorker{
		mem:    make([]uint64, s.st.npages*uint64(s.st.pagesz)/8),
		held:   make([]bool, s.cfg.Shards),
		inLane: make([]atomic.Bool, s.cfg.Workers+1),
	}
}

func (w *fakeWorker) ID() int { return 0 }

func (w *fakeWorker) LaneWorker(lane int) core.Worker { return fakeLane{w, lane} }

func (w *fakeWorker) CountServe(_, _, inline int64) { w.inline.Add(inline) }

func (w *fakeWorker) Lock(id int) {
	w.mu.Lock()
	w.locks++
	boom := w.locks == w.panicAt
	w.mu.Unlock()
	w.acquire(id, boom)
}

// LockInPlace acquires like Lock unless refuseInPlace is set.
func (w *fakeWorker) LockInPlace(id int) bool {
	w.mu.Lock()
	w.inPlaces++
	boom := w.inPlaces == w.panicInPlaceAt
	refuse := w.refuseInPlace
	w.mu.Unlock()
	if refuse {
		return false
	}
	w.acquire(id, boom)
	return true
}

func (w *fakeWorker) acquire(id int, boom bool) {
	if w.entered != nil {
		select {
		case w.entered <- struct{}{}:
		default:
		}
	}
	if boom {
		panic("boom")
	}
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.held[id] {
		panic("fakeWorker: lock acquired twice")
	}
	w.held[id] = true
}

func (w *fakeWorker) Unlock(id int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.held[id] {
		panic("fakeWorker: unlock of a free lock")
	}
	w.held[id] = false
}

// fakeLane is one executor's lane of a fakeWorker. It panics when two
// goroutines are inside it at once: from an acquire to its Unlock.
type fakeLane struct {
	*fakeWorker
	lane int
}

func (l fakeLane) Lock(id int) {
	l.fakeWorker.Lock(id)
	l.enter()
}

func (l fakeLane) LockInPlace(id int) bool {
	if !l.fakeWorker.LockInPlace(id) {
		return false
	}
	l.enter()
	return true
}

func (l fakeLane) Unlock(id int) {
	l.inLane[l.lane].Store(false)
	l.fakeWorker.Unlock(id)
}

func (l fakeLane) enter() {
	if !l.inLane[l.lane].CompareAndSwap(false, true) {
		panic(fmt.Sprintf("fakeWorker: two goroutines inside lane %d", l.lane))
	}
}

func (w *fakeWorker) ReadU64(a core.Addr) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mem[a/8]
}

func (w *fakeWorker) WriteU64(a core.Addr, v uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mem[a/8] = v
	if w.writes != nil {
		w.writes[a] = append(w.writes[a], v)
	}
}

func fakeServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	st, err := NewStore(fakeMem{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(st)
}

func shardOfKey(s *Server, k uint64) int { return s.st.shardOf(s.st.pageOf(s.st.slotOf(k))) }

// keysOn returns the first n keys whose shard is pinned to executor e.
func keysOn(s *Server, e, n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if s.executorOf(shardOfKey(s, k)) == e {
			keys = append(keys, k)
		}
	}
	return keys
}

// runWorker runs NodeWorker and reports the panic it re-raised (nil for
// a clean return).
func runWorker(s *Server, w core.Worker) <-chan any {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		s.NodeWorker(w)
	}()
	return done
}

// TestDoUnblocksOnExecutorFailure: the engine panics with callers
// holding ops in an executor's batch, in two executors' queues and
// still arriving, while a third executor sits parked on an empty queue.
// In the queued row an executor dies mid-batch (every op queues); in
// the inline row a caller running its own op on a borrowed lane does.
// Every caller must come back with the structured error naming node and
// executor — the panicking caller from its own unwind, the ops an
// executor held from its unwind, the rest from the drainers — NodeWorker
// must re-raise the panic value, and the parked executor must be woken,
// or NodeWorker never returns.
func TestDoUnblocksOnExecutorFailure(t *testing.T) {
	for _, row := range []struct {
		name   string
		script func(*fakeWorker)
	}{
		{"queued", func(w *fakeWorker) { w.refuseInPlace, w.panicAt = true, 200 }},
		{"inline", func(w *fakeWorker) { w.panicInPlaceAt = 200 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 3, QueueDepth: 128})
			w := newFakeWorker(s)
			row.script(w)
			doUntilFailure(t, s, w)
		})
	}
}

func doUntilFailure(t *testing.T, s *Server, w *fakeWorker) {
	before := runtime.NumGoroutine()
	worker := runWorker(s, w)

	const callers = 64
	errs := make(chan error, callers)
	for _, k := range append(keysOn(s, 0, callers/2), keysOn(s, 1, callers/2)...) {
		go func(k uint64) {
			for i := uint64(0); ; i++ {
				if _, err := s.Do(i%2 == 0, k, i+1); err != nil {
					errs <- err
					return
				}
			}
		}(k)
	}
	select {
	case pv := <-worker:
		if pv != "boom" {
			t.Errorf("NodeWorker re-raised %v, want the executor's panic value", pv)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NodeWorker did not return after its executor panicked")
	}
	deadline := time.After(time.Second)
	for c := 0; c < callers; c++ {
		select {
		case err := <-errs:
			if msg := err.Error(); !strings.HasPrefix(msg, "serve: node 0 executor ") || !strings.HasSuffix(msg, ": boom") {
				t.Errorf("caller got %q, want the executor failure", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d callers still blocked in Do 1 s after the failure", callers-c, callers)
		}
	}
	// The drainers are the only goroutines left, and Shutdown ends them.
	s.Shutdown()
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines before, %d after Shutdown of a failed server", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitIdle waits until executor e of node 0 is parked on its queue.
func waitIdle(t *testing.T, s *Server, e int) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !s.lanes[0][e].idle.Load(); {
		if time.Now().After(end) {
			t.Fatalf("executor %d never parked", e)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBorrowedLaneNeverShared: many callers, each with its own keys,
// race for few executors' lanes, so ops run inline and queued at once.
// No lane may ever have two goroutines between an acquire and its
// Unlock (fakeLane panics), no shard lock may be acquired twice
// (fakeWorker panics), and every get must read the caller's last put.
func TestBorrowedLaneNeverShared(t *testing.T) {
	const callers, ops = 32, 300
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 16, Shards: 16, Workers: 4, Batch: 8})
	w := newFakeWorker(s)
	worker := runWorker(s, w)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(1); i <= ops; i++ {
				k := c + callers*(i%4) // four keys per caller, no key shared
				if _, err := s.Do(true, k, i); err != nil {
					errs <- err
					return
				}
				if v, err := s.Do(false, k, 0); err != nil || v != i {
					errs <- fmt.Errorf("caller %d: get(%d) after put %d = %d, %v", c, k, i, v, err)
					return
				}
			}
		}(uint64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s.Shutdown()
	if pv := <-worker; pv != nil {
		t.Fatalf("NodeWorker panicked: %v", pv)
	}
	t.Logf("%d of %d ops ran inline", w.inline.Load(), 2*callers*ops)
}

// TestExecutorInHandIsNotOvertaken: a caller runs its op inline and is
// held inside the acquire while a second op queues; the executor
// dequeues it and waits for its lane. The first caller's next op, issued
// the moment its lane is given back, must queue behind the executor's
// op, not borrow the lane ahead of it: the key's writes land 1, 2, 3.
func TestExecutorInHandIsNotOvertaken(t *testing.T) {
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 1})
	w := newFakeWorker(s)
	w.writes = map[core.Addr][]uint64{}
	w.gate = make(chan struct{})
	w.entered = make(chan struct{}, 1)
	worker := runWorker(s, w)
	waitIdle(t, s, 0)

	const k = 5
	errs := make(chan error, 3)
	do := func(v uint64) {
		if _, err := s.Do(true, k, v); err != nil {
			errs <- err
		}
	}
	first := make(chan struct{})
	go func() {
		do(1) // inline: the executor is parked
		do(3) // the lane was just given back
		close(first)
	}()
	<-w.entered // the caller holds the lane, inside the acquire
	second := make(chan struct{})
	go func() { do(2); close(second) }()
	for end := time.Now().Add(5 * time.Second); s.lanes[0][0].idle.Load() || len(s.queues[0][0]) != 0; {
		if time.Now().After(end) {
			t.Fatal("the executor never took the second op")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(w.gate)
	<-first
	<-second
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Shutdown()
	if pv := <-worker; pv != nil {
		t.Fatalf("NodeWorker panicked: %v", pv)
	}
	if got := w.writes[s.st.KeyAddr(k)]; fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("writes landed %v, want [1 2 3]: a caller overtook the executor's op", got)
	}
	if n := w.inline.Load(); n < 1 {
		t.Errorf("%d ops ran inline, want the first caller's", n)
	}
}

// TestShutdownWaitsForBorrowedLane: Shutdown arrives while a caller runs
// its op on a borrowed lane. The executor must take the lane back before
// it returns, so NodeWorker (after which the cluster flushes and tears
// the node down) waits for the caller's op.
func TestShutdownWaitsForBorrowedLane(t *testing.T) {
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 1})
	w := newFakeWorker(s)
	w.gate = make(chan struct{})
	w.entered = make(chan struct{}, 1)
	worker := runWorker(s, w)
	waitIdle(t, s, 0)

	type res struct {
		v   uint64
		err error
	}
	out := make(chan res, 1)
	go func() {
		v, err := s.Do(true, 5, 7)
		out <- res{v, err}
	}()
	<-w.entered // inline, holding the lane
	s.Shutdown()
	select {
	case pv := <-worker:
		t.Fatalf("NodeWorker returned (%v) while a caller held its executor's lane", pv)
	case <-time.After(50 * time.Millisecond):
	}
	close(w.gate)
	if r := <-out; r.v != 7 || r.err != nil {
		t.Errorf("inline put across Shutdown = %d, %v; want 7", r.v, r.err)
	}
	select {
	case pv := <-worker:
		if pv != nil {
			t.Errorf("NodeWorker panicked: %v", pv)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NodeWorker did not return after the caller gave its lane back")
	}
}

// TestShutdownAnswersQueuedOps: Shutdown arrives with several batches'
// worth of ops queued behind a busy executor and a second executor
// parked on an empty queue. The first must execute all of them, the
// second must wake and leave.
func TestShutdownAnswersQueuedOps(t *testing.T) {
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 2, Batch: 4, QueueDepth: 64})
	w := newFakeWorker(s)
	w.refuseInPlace = true
	w.gate = make(chan struct{})
	w.entered = make(chan struct{}, 1)
	worker := runWorker(s, w)

	const queued = 31
	keys := keysOn(s, 0, queued+1)
	type res struct {
		key, val uint64
		err      error
	}
	out := make(chan res, len(keys))
	do := func(k uint64) {
		v, err := s.Do(true, k, 1000+k)
		out <- res{k, v, err}
	}
	go do(keys[0])
	<-w.entered // executor 0 is inside Lock holding a batch of one
	for _, k := range keys[1:] {
		go do(k)
	}
	for end := time.Now().Add(5 * time.Second); len(s.queues[0][0]) < queued; {
		if time.Now().After(end) {
			t.Fatalf("only %d of %d ops reached the queue", len(s.queues[0][0]), queued)
		}
		time.Sleep(time.Millisecond)
	}
	s.Shutdown()
	close(w.gate)
	deadline := time.After(5 * time.Second)
	for range keys {
		select {
		case r := <-out:
			if r.err != nil || r.val != 1000+r.key {
				t.Errorf("op queued before Shutdown: key %d = %d, %v; want its value", r.key, r.val, r.err)
			}
		case <-deadline:
			t.Fatal("ops queued before Shutdown were never answered")
		}
	}
	select {
	case pv := <-worker:
		if pv != nil {
			t.Errorf("NodeWorker panicked on a clean shutdown: %v", pv)
		}
	case <-deadline:
		t.Fatal("NodeWorker did not return: an executor missed Shutdown")
	}
	if _, err := s.Do(false, keys[0], 0); err == nil {
		t.Error("Do after Shutdown was accepted")
	}
}

// TestBatchKeepsArrivalOrderPerKey: one drained batch interleaves three
// shards, each carrying a run of puts to one key and then a get of it.
// Grouping by shard must keep each shard's arrival order — long enough
// here that an unstable sort would not — and take each lock once.
func TestBatchKeepsArrivalOrderPerKey(t *testing.T) {
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 1})
	w := newFakeWorker(s)
	w.writes = map[core.Addr][]uint64{}
	// One key on each of three shards, batched in descending shard order
	// so that grouping has to move every op.
	var keys []uint64
	seen := map[int]bool{}
	for k := uint64(0); len(keys) < 3; k++ {
		if sh := shardOfKey(s, k); !seen[sh] {
			seen[sh] = true
			keys = append(keys, k)
		}
	}
	if shardOfKey(s, keys[0]) < shardOfKey(s, keys[2]) {
		keys[0], keys[2] = keys[2], keys[0]
	}
	const puts = 9
	var batch, gets []*op
	add := func(put bool, k, v uint64) *op {
		o := &op{put: put, key: k, val: v, shard: shardOfKey(s, k), resp: make(chan opResult, 1)}
		batch = append(batch, o)
		return o
	}
	for v := uint64(1); v <= puts; v++ {
		for _, k := range keys {
			add(true, k, v)
		}
	}
	for _, k := range keys {
		gets = append(gets, add(false, k, 0))
	}
	all := append([]*op(nil), batch...)
	s.execBatch(w, batch, make([]time.Duration, 0, len(batch)))

	for i, g := range gets {
		if r := <-g.resp; r.val != puts || r.err != nil {
			t.Errorf("get of key %d after puts 1..%d returned %d, %v", keys[i], puts, r.val, r.err)
		}
	}
	for _, k := range keys {
		got := w.writes[s.st.addrOf(s.st.slotOf(k))]
		for i, v := range got {
			if v != uint64(i+1) {
				t.Errorf("key %d written in order %v, want 1..%d", k, got, puts)
				break
			}
		}
	}
	for _, o := range all[:len(all)-len(gets)] {
		select {
		case r := <-o.resp:
			if r.val != o.val {
				t.Errorf("put(%d, %d) answered %d", o.key, o.val, r.val)
			}
		default:
			t.Errorf("put(%d, %d) was not answered", o.key, o.val)
		}
	}
	if w.locks != len(keys) {
		t.Errorf("%d lock acquires for %d shards", w.locks, len(keys))
	}
	for id, held := range w.held {
		if held {
			t.Errorf("lock %d still held after the batch", id)
		}
	}
	if n := s.hist.Count(); n != int64(len(all)) {
		t.Errorf("server histogram holds %d samples for a batch of %d", n, len(all))
	}
}

// TestDoDoesNotAllocate: in steady state a get and a put allocate
// nothing between Do and the worker, on either path: inline, not the
// op; queued, not the op, not its reply channel, not the executor's
// batch or its sort. (Under the race detector sync.Pool drops a quarter
// of what it is given; AllocsPerRun's truncating average still reads 0
// there, and anything per-op reads >= 1. What the live node allocates
// under Lock and Unlock is its own: `make bench-serve` shows it.)
func TestDoDoesNotAllocate(t *testing.T) {
	const runs = 2000
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 1})
	w := newFakeWorker(s)
	worker := runWorker(s, w)
	waitIdle(t, s, 0)
	var i uint64
	for _, queued := range []bool{false, true} {
		// A lone caller finds the executor parked and runs inline; with
		// the in-place acquire refused, every op queues instead.
		w.mu.Lock()
		w.refuseInPlace = queued
		w.mu.Unlock()
		for _, put := range []bool{false, true} {
			do := func() {
				i++
				if _, err := s.Do(put, i&(1<<10-1), i); err != nil {
					t.Fatal(err)
				}
			}
			inline := w.inline.Load()
			if a := testing.AllocsPerRun(runs, do); a != 0 {
				t.Errorf("queued=%v put=%v: %v allocs per Do, want 0", queued, put, a)
			}
			if n := w.inline.Load() - inline; queued && n != 0 || !queued && n != runs+1 {
				t.Errorf("queued=%v put=%v: %d of %d ops ran inline", queued, put, n, runs+1)
			}
		}
	}
	s.Shutdown()
	if pv := <-worker; pv != nil {
		t.Fatalf("NodeWorker panicked: %v", pv)
	}
	// One P never queues a second op behind the first, so the grouping
	// path gets its batch by hand: 32 ops over every shard, out of order.
	w = newFakeWorker(s)
	all := make([]*op, 32)
	for k := range all {
		key := uint64(len(all) - k)
		all[k] = &op{put: k%2 == 0, key: key, val: 1, shard: shardOfKey(s, key), resp: make(chan opResult, 1)}
	}
	batch, enq := make([]*op, len(all)), make([]time.Duration, 0, len(all))
	if a := testing.AllocsPerRun(200, func() {
		copy(batch, all)
		s.execBatch(w, batch, enq)
		for _, o := range all {
			<-o.resp
		}
	}); a != 0 {
		t.Errorf("%v allocs per batch of %d over %d shards, want 0", a, len(all), s.cfg.Shards)
	}
}
