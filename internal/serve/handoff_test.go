package serve

import (
	"runtime"
	"strings"
	"sync"
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

// fakeWorker is a core.Worker over a word array: Lock can be scripted to
// panic on its Nth call or to block until a gate opens. Executors of
// one node share it (it has no lanes), hence the mutex. It allocates
// nothing per call unless writes is set.
type fakeWorker struct {
	core.Worker // the methods serve never calls stay nil

	mu      sync.Mutex
	mem     []uint64
	writes  map[core.Addr][]uint64 // non-nil: per address, in execution order
	locks   int                    // Lock calls so far
	held    []bool
	panicAt int           // Lock call that panics; 0 = never
	gate    chan struct{} // non-nil: Lock waits for it to close
	entered chan struct{} // non-nil: signalled on every Lock entry
}

func newFakeWorker(s *Server) *fakeWorker {
	return &fakeWorker{
		mem:  make([]uint64, s.st.npages*uint64(s.st.pagesz)/8),
		held: make([]bool, s.cfg.Shards),
	}
}

func (w *fakeWorker) ID() int { return 0 }

func (w *fakeWorker) Lock(id int) {
	w.mu.Lock()
	w.locks++
	boom := w.locks == w.panicAt
	w.mu.Unlock()
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

// TestDoUnblocksOnExecutorFailure: an executor dies mid-batch with
// callers holding ops in its batch, in two executors' queues and still
// arriving, while a third executor sits parked on an empty queue. Every
// caller must come back with the structured error — the ops the
// executor held from its unwind, the rest from the drainers — and the
// parked executor must be woken, or NodeWorker never returns.
func TestDoUnblocksOnExecutorFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 3, QueueDepth: 128})
	w := newFakeWorker(s)
	w.panicAt = 200
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
			if !strings.Contains(err.Error(), "executor") || !strings.Contains(err.Error(), "boom") {
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

// TestShutdownAnswersQueuedOps: Shutdown arrives with several batches'
// worth of ops queued behind a busy executor and a second executor
// parked on an empty queue. The first must execute all of them, the
// second must wake and leave.
func TestShutdownAnswersQueuedOps(t *testing.T) {
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 2, Batch: 4, QueueDepth: 64})
	w := newFakeWorker(s)
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
// nothing between Do and the worker — not the op, not its reply channel,
// not the executor's batch or its sort. (Under the race detector
// sync.Pool drops a quarter of what it is given; AllocsPerRun's
// truncating average still reads 0 there, and anything per-op reads
// >= 1. What the live node allocates under Lock and Unlock is its own:
// `make bench-serve` shows it.)
func TestDoDoesNotAllocate(t *testing.T) {
	s := fakeServer(t, Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 1})
	worker := runWorker(s, newFakeWorker(s))
	var i uint64
	for _, put := range []bool{false, true} {
		do := func() {
			i++
			if _, err := s.Do(put, i&(1<<10-1), i); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(2000, do); a != 0 {
			t.Errorf("put=%v: %v allocs per Do, want 0", put, a)
		}
	}
	s.Shutdown()
	if pv := <-worker; pv != nil {
		t.Fatalf("NodeWorker panicked: %v", pv)
	}
	// One P never queues a second op behind the first, so the grouping
	// path gets its batch by hand: 32 ops over every shard, out of order.
	w := newFakeWorker(s)
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
