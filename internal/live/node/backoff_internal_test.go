package node

import (
	"strings"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
)

// These tests pin Backoff's invariant: a parked poller sleeps only while
// nothing it could read has changed, and every dispatched frame wakes
// it. The backstop is raised to an hour for all of them, so a missing
// wake-up hangs (and fails the 10 s wait below) instead of being papered
// over a millisecond later.

// startIdle starts an n-node in-process cluster over one word homed at
// node 0, with failure detection off and the backstop out of the picture.
func startIdle(t *testing.T, n int) []*Node {
	t.Helper()
	old := backoffBackstop.Swap(int64(time.Hour))
	trs := transport.NewInprocNetwork(n)
	cfg := Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LI, HeartbeatTimeout: -1,
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(trs[i], cfg)
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			waitClosed(t, nd)
		}
		backoffBackstop.Store(old)
	})
	return nodes
}

// own makes nd (node 0, lock 0's home) the lock's owner and waits until
// its dispatcher has finished the acquire's self-addressed request, so
// that the next acquire is local and nothing is left to be handled.
func own(t *testing.T, nd *Node) {
	t.Helper()
	nd.Lock(0)
	nd.Unlock(0)
	waitUntil(t, "the acquire's request to be handled", func() bool { return nd.gen.Load() > 0 })
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// goWorker runs body on its own goroutine; the channel carries the
// message of the engine error it unwound with, or "" if it returned.
func goWorker(body func()) <-chan string {
	out := make(chan string, 1)
	go func() {
		msg := ""
		defer func() {
			if r := recover(); r != nil {
				re, ok := r.(runError)
				if !ok {
					panic(r)
				}
				msg = re.err.Error()
			}
			out <- msg
		}()
		body()
	}()
	return out
}

func await(t *testing.T, what string, out <-chan string) string {
	t.Helper()
	select {
	case msg := <-out:
		return msg
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked after 10 s", what)
		return ""
	}
}

// TestBackoffParksUntilFrame: a worker polling a lock its node owns parks
// instead of spinning, stays parked while nothing happens, and a peer's
// acquire of that lock and its flush — frames handled in place on the
// peer's goroutine — wake it. The peer fetches a copy of the page
// first, and the poller's dispatcher finishes that turn before the poll
// begins, so that no fault sends the dispatcher a request later on.
func TestBackoffParksUntilFrame(t *testing.T) {
	nodes := startIdle(t, 2)
	a, b := nodes[0], nodes[1]
	own(t, a)
	turns := a.gen.Load()
	b.ReadU64(0)
	waitUntil(t, "the page request's turn to end", func() bool { return a.gen.Load() > turns })
	out := goWorker(func() {
		for {
			a.Lock(0)
			v := a.ReadU64(0)
			a.Unlock(0)
			if v != 0 {
				return
			}
			a.Backoff(1)
		}
	})
	waitUntil(t, "the poller to park", func() bool { return a.Stats().BackoffParks > 0 })
	polls := a.Stats().LockAcquires
	time.Sleep(5 * time.Millisecond)
	if got := a.Stats().LockAcquires; got != polls {
		t.Fatalf("a parked poller polled %d more times with nothing changed", got-polls)
	}
	b.Lock(0)
	b.WriteU64(0, 1)
	b.Unlock(0)
	if msg := await(t, "the parked poller", out); msg != "" {
		t.Fatalf("poller unwound: %s", msg)
	}
	if s := a.Stats(); s.BackoffParks != 1 || s.BackoffTimeouts != 0 {
		t.Errorf("parks %d, backstop timeouts %d; want 1 park, ended by the frame", s.BackoffParks, s.BackoffTimeouts)
	}
	if a.Stats().InlineRequests == 0 {
		t.Error("the peer's requests went through the poller's dispatcher, not in place")
	}
}

// TestBackoffNoLostWakeup races a peer's frames against the poller's
// park: the peer bumps the word under the lock the poller owns as soon as
// the poller has seen the previous value, so each acquire request lands
// somewhere in the poller's unlock-backoff-park sequence. A lost wake-up
// leaves the poller parked for good.
func TestBackoffNoLostWakeup(t *testing.T) {
	const rounds = 200
	nodes := startIdle(t, 2)
	a, b := nodes[0], nodes[1]
	own(t, a)
	seen := make(chan struct{})
	out := goWorker(func() {
		for want := uint64(1); want <= rounds; {
			a.Lock(0)
			v := a.ReadU64(0)
			a.Unlock(0)
			if v < want {
				a.Backoff(1)
				continue
			}
			want = v + 1
			seen <- struct{}{}
		}
	})
	for i := uint64(1); i <= rounds; i++ {
		b.Lock(0)
		b.WriteU64(0, i)
		b.Unlock(0)
		select {
		case <-seen:
		case msg := <-out:
			t.Fatalf("poller exited early: %q", msg)
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the poller never saw the write (lost wake-up; %d parks)", i, a.Stats().BackoffParks)
		}
	}
	if msg := await(t, "the poller", out); msg != "" {
		t.Fatalf("poller unwound: %s", msg)
	}
	if a.Stats().BackoffTimeouts != 0 {
		t.Error("the backstop fired")
	}
}

// TestBackoffNeverParksHolding: Backoff returns at once whenever a park
// could hide a change the worker itself must make or see — inside a
// critical section, with an open write interval, during replay — and on
// a lane, whose siblings the node cannot account for.
func TestBackoffNeverParksHolding(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(nd *Node)
	}{
		{"holding-a-lock", func(nd *Node) {
			nd.Lock(0)
			nd.Backoff(1)
			nd.Unlock(0)
		}},
		{"open-write", func(nd *Node) {
			nd.Lock(0)
			nd.Unlock(0)
			nd.WriteU64(0, 1)
			nd.Backoff(1)
		}},
		{"replaying", func(nd *Node) {
			nd.BeginReplay(1)
			nd.Lock(0)
			nd.Unlock(0)
			nd.Backoff(1)
			nd.Barrier(0) // ends the replay
		}},
		{"lane", func(nd *Node) {
			nd.Lock(0)
			nd.Unlock(0)
			lw := nd.LaneWorker(1)
			lw.Lock(0)
			lw.Unlock(0)
			lw.Backoff(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd := startIdle(t, 1)[0]
			own(t, nd)
			if msg := await(t, "Backoff", goWorker(func() { tc.body(nd) })); msg != "" {
				t.Fatalf("worker unwound: %s", msg)
			}
			if p := nd.Stats().BackoffParks; p != 0 {
				t.Errorf("parked %d times", p)
			}
		})
	}
}

// TestBackoffUnwindsOnInterrupt: a parked poller is released by the
// rollback interrupt and by shutdown, like a worker parked in an RPC wait
// (TestParkedWaitsUnwind).
func TestBackoffUnwindsOnInterrupt(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		stop       func(nd *Node)
	}{
		{"interrupt", "rolled back", func(nd *Node) { nd.InterruptWorker(&RollbackError{Victim: 1}) }},
		{"close", "shut down", func(nd *Node) { nd.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd := startIdle(t, 1)[0]
			own(t, nd)
			out := goWorker(func() {
				nd.Lock(0)
				nd.Unlock(0)
				nd.Backoff(1)
			})
			waitUntil(t, "the poller to park", func() bool { return nd.Stats().BackoffParks > 0 })
			tc.stop(nd)
			if msg := await(t, "the parked poller", out); !strings.Contains(msg, tc.want) {
				t.Errorf("parked poller unwound with %q, want %q", msg, tc.want)
			}
		})
	}
}
