package node_test

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
)

// These tests pin the lock-free hit path of the node's own worker (see
// lpage in node.go) at the places its state word changes: invalidation,
// interval close, remote diffs landing on a page the worker is using,
// and the shared-node case that must keep the lock.

// onePage is a cluster layout with a single shared page and two locks.
func onePage(home int32, prot core.Protocol) node.Config {
	return node.Config{
		PageSize: 256, NPages: 1, Homes: []int32{home},
		NLocks: 2, NBars: 1, Protocol: prot,
		// Node 0 votes alone, as on two nodes, and an hour's timeout
		// spaces its appends to every node (each election timeout / 10)
		// 90 s apart: past the bootstrap append and its acks at Start, no
		// consensus frame crosses a data-plane test's transports.
		HeartbeatTimeout: time.Hour,
		Recover:          node.RecoverConfig{Voters: []int{0}},
	}
}

// unwound runs body and returns the message of the engine error it
// unwound with ("" if it returned).
func unwound(body func()) (msg string) {
	defer func() {
		if re, ok := recover().(interface{ Unwrap() error }); ok {
			msg = re.Unwrap().Error()
		}
	}()
	body()
	return ""
}

// runWorkers runs one body per goroutine and fails the test if any of
// them panics (an engine error unwinds a worker as a panic) or they do
// not all return in time.
func runWorkers(t *testing.T, bodies ...func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body func()) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if re, ok := r.(interface{ Unwrap() error }); ok {
						r = re.Unwrap()
					}
					t.Errorf("worker failed: %v", r)
				}
			}()
			body()
		}(body)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers hung")
	}
}

// TestReadHitThenInvalidation: a cached page is read lock-free until an
// acquire's write notice invalidates it; the next read must leave the
// fast path, fault, and see the new value.
func TestReadHitThenInvalidation(t *testing.T) {
	nodes, stop := startNodes(t, onePage(0, core.LI), 2)
	defer stop()
	cached, written := make(chan struct{}), make(chan struct{})
	runWorkers(t,
		func() {
			w := nodes[0]
			<-cached
			w.Lock(0)
			w.WriteU64(0, 7)
			w.Unlock(0)
			close(written)
		},
		func() {
			w := nodes[1]
			if v := w.ReadU64(0); v != 0 { // cold: faults the page in
				t.Errorf("first read = %d, want 0", v)
			}
			if v := w.ReadU64(0); v != 0 { // hit
				t.Errorf("cached read = %d, want 0", v)
			}
			close(cached)
			<-written
			w.Lock(0) // the grant's notice invalidates the copy
			if v := w.ReadU64(0); v != 7 {
				t.Errorf("read after invalidation = %d, want 7", v)
			}
			w.Unlock(0)
		},
	)
	s := nodes[1].Stats()
	if s.PageFaults != 2 || s.Invalidations != 1 {
		t.Errorf("reader faults = %d, invalidations = %d; want 2 and 1", s.PageFaults, s.Invalidations)
	}
	if s.SharedReads != 3 {
		t.Errorf("reader SharedReads = %d, want 3 (one fault, one hit, one fault)", s.SharedReads)
	}
}

// TestWriteHitRetwinsAfterRelease: a release drops the twin, so the next
// write to the same page must leave the fast path, re-twin, and reach a
// remote reader in the next interval's diff.
func TestWriteHitRetwinsAfterRelease(t *testing.T) {
	for _, prot := range []core.Protocol{core.LI, core.LH} {
		t.Run(prot.String(), func(t *testing.T) {
			nodes, stop := startNodes(t, onePage(0, prot), 3)
			defer stop()
			first, second := make(chan struct{}), make(chan struct{})
			check := func(w core.Worker, want8 uint64) {
				w.Lock(0)
				if a, b := w.ReadU64(0), w.ReadU64(8); a != 1 || b != want8 {
					t.Errorf("reader saw (%d, %d), want (1, %d)", a, b, want8)
				}
				w.Unlock(0)
			}
			runWorkers(t,
				func() {}, // node 0 only homes the page
				func() {
					w := nodes[1]
					w.Lock(0)
					w.WriteU64(0, 1) // faults, twins
					w.WriteU64(8, 2) // hit
					w.Unlock(0)
					close(first)
					<-second
					w.Lock(0)
					w.WriteU64(8, 3) // no twin any more: must re-twin
					w.Unlock(0)
				},
				func() {
					w := nodes[2]
					<-first
					check(w, 2)
					close(second)
				},
			)
			check(nodes[2], 3)
			s := nodes[1].Stats()
			if s.TwinsCreated != 2 || s.DiffsCreated != 2 {
				t.Errorf("writer twins = %d, diffs = %d; want 2 and 2", s.TwinsCreated, s.DiffsCreated)
			}
			if s.SharedWrites != 3 {
				t.Errorf("writer SharedWrites = %d, want 3", s.SharedWrites)
			}
		})
	}
}

// TestHomeSpinsOnUnlockedRead is the tsp pattern: the home's worker
// polls a word with no lock while a remote node rewrites it under one,
// so the dispatcher's diff application runs concurrently with the
// worker's lock-free loads of the same word — and with its lock-free
// stores to a neighbouring word of the same twinned page. The poll must
// terminate, neither side's words may be lost, and -race must stay
// quiet.
func TestHomeSpinsOnUnlockedRead(t *testing.T) {
	nodes, stop := startNodes(t, onePage(0, core.LH), 2)
	defer stop()
	const rounds = 20
	var spins atomic.Uint64
	runWorkers(t,
		func() {
			w := nodes[0]
			deadline := time.Now().Add(20 * time.Second)
			for w.ReadU64(0) != rounds {
				n := spins.Add(1)
				w.WriteU64(8, n)
				if n%4096 == 0 && time.Now().After(deadline) {
					t.Error("home never saw the remote write")
					break
				}
			}
			w.Barrier(0)
		},
		func() {
			w := nodes[1]
			for i := uint64(1); i <= rounds; i++ {
				w.Lock(0)
				w.WriteU64(0, i)
				w.Unlock(0)
			}
			w.Barrier(0)
			if v := w.ReadU64(8); v != spins.Load() {
				t.Errorf("remote read of the home's word = %d, want %d", v, spins.Load())
			}
		},
	)
	if v := nodes[0].ReadU64(0); v != rounds {
		t.Errorf("home's word = %d, want %d", v, rounds)
	}
}

// TestLaneWritesSurviveSiblingRelease: two lane workers share node 0.
// One fills a page under lock 0 while the other cycles lock 1, and every
// one of those releases diffs and un-twins the page under the writer's
// feet. Lane accessors take the node mutex, so each late write re-twins
// and is flushed; a lock-free write would land in an un-twinned page and
// never reach the remote home.
func TestLaneWritesSurviveSiblingRelease(t *testing.T) {
	nodes, stop := startNodes(t, onePage(1, core.LH), 2)
	defer stop()
	const words = 32     // the whole 256-byte page
	var relMu sync.Mutex // releases on a shared node are serialized (see LaneWorker)
	var filled atomic.Bool
	done := make(chan struct{})
	runWorkers(t,
		func() {
			w := nodes[0].LaneWorker(1)
			for round := uint64(1); round <= 50; round++ {
				w.Lock(0)
				for i := 0; i < words; i++ {
					w.WriteU64(core.Addr(8*i), round<<8|uint64(i))
				}
				relMu.Lock()
				w.Unlock(0)
				relMu.Unlock()
			}
			filled.Store(true)
			close(done)
		},
		func() {
			w := nodes[0].LaneWorker(2)
			for !filled.Load() {
				w.Lock(1)
				relMu.Lock()
				w.Unlock(1)
				relMu.Unlock()
			}
		},
		func() {
			w := nodes[1]
			<-done
			w.Lock(0)
			for i := 0; i < words; i++ {
				if v, want := w.ReadU64(core.Addr(8*i)), uint64(50<<8|i); v != want {
					t.Errorf("word %d at the home = %#x, want %#x", i, v, want)
				}
			}
			w.Unlock(0)
		},
	)
	if s := nodes[0].Stats(); s.SharedWrites != 50*words {
		t.Errorf("lane SharedWrites = %d, want %d", s.SharedWrites, 50*words)
	}
}

// TestHitCountsSurviveUnwinding: lock-free hits are counted privately
// and folded into the stats when the worker enters the engine, which is
// also where an interrupt or an abort starts unwinding it — so the
// totals are exact even for a worker that never reaches FinalFlush.
func TestHitCountsSurviveUnwinding(t *testing.T) {
	t.Run("interrupt", func(t *testing.T) {
		nodes, stop := startNodes(t, onePage(0, core.LH), 1)
		defer stop()
		w := nodes[0]
		w.WriteU64(0, 1) // first write: locked path
		for i := 0; i < 100; i++ {
			w.WriteU64(8, w.ReadU64(0))
		}
		w.InterruptWorker(&node.RollbackError{Victim: 0})
		if msg := unwound(func() { w.ReadU64(0) }); !strings.Contains(msg, "rolled back") {
			t.Fatalf("interrupted read unwound with %q", msg)
		}
		if s := w.Stats(); s.SharedReads != 100 || s.SharedWrites != 101 {
			t.Errorf("reads = %d, writes = %d; want 100 and 101", s.SharedReads, s.SharedWrites)
		}
	})
	t.Run("abort", func(t *testing.T) {
		// Node 1 is never built, so no grant can race the shutdown.
		trs := transport.NewInprocNetwork(2)
		w := node.New(trs[0], onePage(0, core.LH))
		w.Start()
		defer func() {
			trs[0].Close()
			trs[1].Close()
			w.Wait()
		}()
		for i := 0; i < 100; i++ {
			w.ReadU64(0)
		}
		w.Close()
		if msg := unwound(func() { w.Lock(1) }); !strings.Contains(msg, "shut down") { // lock 1 is homed at node 1
			t.Fatalf("acquire on a closed node unwound with %q", msg)
		}
		if s := w.Stats(); s.SharedReads != 100 {
			t.Errorf("reads = %d, want 100", s.SharedReads)
		}
	})
}

// TestOddAddresses: unaligned and out-of-range addresses never take the
// fast path and keep their old behaviour — an unaligned word is read and
// written byte-wise under the mutex (and still twinned and flushed, by
// the own worker and by a lane, whose twin saves both regions a word
// straddles on these one-word-region pages), an address past the shared
// space is a structured worker error.
func TestOddAddresses(t *testing.T) {
	for _, lane := range []bool{false, true} {
		nodes, stop := startNodes(t, onePage(0, core.LH), 2)
		runWorkers(t, func() {}, func() {
			var w core.Worker = nodes[1]
			if lane {
				w = nodes[1].LaneWorker(1)
			}
			w.Lock(0)
			w.WriteU64(0, 0x1111111111111111)
			w.WriteU64(8, 0x2222222222222222)
			w.Unlock(0)
			w.Lock(0)
			w.WriteU64(4, 0xaabbccddeeff0011) // straddles both words
			if v := w.ReadU64(4); v != 0xaabbccddeeff0011 {
				t.Errorf("lane %v: unaligned read back %#x", lane, v)
			}
			if lo, hi := w.ReadU64(0), w.ReadU64(8); lo != 0xeeff001111111111 || hi != 0x22222222aabbccdd {
				t.Errorf("lane %v: aligned words around it = %#x, %#x", lane, lo, hi)
			}
			w.Unlock(0)
		})
		w := nodes[0]
		w.Lock(0)
		if v := w.ReadU64(4); v != 0xaabbccddeeff0011 {
			t.Errorf("lane %v: home sees unaligned word %#x", lane, v)
		}
		w.Unlock(0)

		for _, a := range []core.Addr{256, 1 << 20} {
			func() {
				defer func() {
					re, ok := recover().(interface{ Unwrap() error })
					if !ok || !strings.Contains(re.Unwrap().Error(), "beyond shared space") {
						t.Errorf("access at %d: want a beyond-shared-space worker error", a)
					}
				}()
				w.WriteU64(a, 1)
			}()
		}
		stop()
	}
}

// TestLockInPlace pins a lane's non-blocking acquire (what a serving
// caller borrowing an idle executor's lane uses) to Lock's zero-message
// path. It refuses when the node does not own the lock, when the node is
// replaying and when a successor is queued for the lock, and a refusal
// sends and counts nothing. A success counts exactly what the lane's
// zero-message Lock counts, and sends nothing either.
func TestLockInPlace(t *testing.T) {
	nodes, stop := startNodes(t, onePage(0, core.LH), 2)
	defer stop()
	lw := nodes[0].LaneWorker(1)
	ip := lw.(interface{ LockInPlace(int) bool })
	refuses := func(why string) {
		t.Helper()
		before := nodes[0].Stats()
		if ip.LockInPlace(0) {
			t.Fatalf("%s: LockInPlace acquired", why)
		}
		if after := nodes[0].Stats(); after != before {
			t.Errorf("%s: a refusal changed the counters:\n%+v\n%+v", why, before, after)
		}
	}
	// delta returns what acquire moved on node 0's counters.
	delta := func(acquire func()) node.Stats {
		before := nodes[0].Stats()
		acquire()
		d := nodes[0].Stats()
		lw.Unlock(0)
		dv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(before)
		for i := 0; i < dv.NumField(); i++ {
			dv.Field(i).SetInt(dv.Field(i).Int() - bv.Field(i).Int())
		}
		return d
	}

	waitFor(t, "node 1's ack of the bootstrap append", nil, func() bool { return nodes[0].Stats().MsgsRecv == 1 })
	refuses("unowned")
	lw.Lock(0) // requested from the home (node 0 itself)
	lw.Unlock(0)
	inPlace := delta(func() {
		if !ip.LockInPlace(0) {
			t.Fatal("LockInPlace refused a lock the node owns with no successor")
		}
	})
	viaLock := delta(func() { lw.Lock(0) })
	if inPlace.MsgsSent != 0 || inPlace.LockAcquires != 1 || inPlace.LockLocalAcquires != 1 {
		t.Errorf("LockInPlace: %d msgs, %d acquires, %d local; want 0, 1, 1",
			inPlace.MsgsSent, inPlace.LockAcquires, inPlace.LockLocalAcquires)
	}
	if inPlace != viaLock {
		t.Errorf("LockInPlace and Lock's zero-message path count differently:\n%+v\n%+v", inPlace, viaLock)
	}

	nodes[0].BeginReplay(1)
	refuses("replaying")
	nodes[0].BeginReplay(0)

	lw.Lock(0)
	granted := make(chan struct{})
	go func() {
		defer close(granted)
		unwound(func() {
			nodes[1].Lock(0) // forwarded to node 0, which queues it behind its holder
			nodes[1].Unlock(0)
		})
	}()
	for end := time.Now().Add(10 * time.Second); !nodes[0].SuccQueued(0); {
		if time.Now().After(end) {
			t.Fatal("node 1's request never queued at node 0")
		}
		time.Sleep(time.Millisecond)
	}
	refuses("successor queued")
	lw.Unlock(0) // hands the lock to node 1
	<-granted
}
