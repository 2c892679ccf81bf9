package node_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/page"
)

// startNodes builds and starts an n-node cluster with the given shared
// layout, returning the nodes and a teardown function.
func startNodes(t *testing.T, cfg node.Config, n int) ([]*node.Node, func()) {
	t.Helper()
	trs := transport.NewInprocNetwork(n)
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(trs[i], cfg)
		nodes[i].Start()
	}
	return nodes, func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			nd.Wait()
		}
	}
}

// TestLockCounter hammers one lock-protected counter from every node and
// checks mutual exclusion end to end: no increment may be lost.
func TestLockCounter(t *testing.T) {
	const nn, iters = 3, 50
	cfg := node.Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 1, Protocol: core.LI,
	}
	nodes, stop := startNodes(t, cfg, nn)
	defer stop()

	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func(w *node.Node) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				w.Lock(0)
				w.WriteU64(0, w.ReadU64(0)+1)
				w.Unlock(0)
			}
			w.Barrier(0)
			w.FinalFlush()
		}(nd)
	}
	wg.Wait()
	img := make([]byte, 8)
	nodes[0].CopyHomePage(0, img)
	if got := page.Buf(img).U64(0); got != nn*iters {
		t.Fatalf("counter = %d, want %d", got, nn*iters)
	}
}

// TestHomeLogPruneFallback drives one writer far past the home's diff
// log capacity while the other node holds a stale copy; the staleness
// forces the eventual LH pull to fall back to a full page fetch, which
// must still produce the right value.
func TestHomeLogPruneFallback(t *testing.T) {
	const writes = 100 // > homeLogCap
	cfg := node.Config{
		PageSize: 256, NPages: 1, Homes: []int32{0},
		NLocks: 1, NBars: 2, Protocol: core.LH,
	}
	nodes, stop := startNodes(t, cfg, 2)
	defer stop()

	var wg sync.WaitGroup
	var got uint64
	wg.Add(2)
	go func() { // node 0: the writer (and home)
		defer wg.Done()
		w := nodes[0]
		w.Barrier(0)
		for i := 0; i < writes; i++ {
			w.Lock(0)
			w.WriteU64(0, w.ReadU64(0)+1)
			w.Unlock(0)
		}
		w.Barrier(1)
	}()
	go func() { // node 1: faults a copy in, goes stale, then catches up
		defer wg.Done()
		w := nodes[1]
		if v := w.ReadU64(0); v != 0 {
			t.Errorf("initial read = %d, want 0", v)
		}
		w.Barrier(0)
		w.Barrier(1)
		got = w.ReadU64(0)
	}()
	wg.Wait()
	if got != writes {
		t.Fatalf("reader saw %d, want %d", got, writes)
	}
	s := nodes[1].Stats()
	if s.DiffPulls == 0 {
		t.Error("reader issued no LH diff pulls")
	}
	if s.PageFetches < 2 {
		t.Errorf("reader page fetches = %d, want >= 2 (initial fault + pruned-log fallback)", s.PageFetches)
	}
}

// TestRPCTimeoutSurfaces checks that a dead peer turns into a bounded
// error instead of a hang: node 1 exists but never serves requests.
func TestRPCTimeoutSurfaces(t *testing.T) {
	cfg := node.Config{
		PageSize: 256, NPages: 1, Homes: []int32{1},
		NLocks: 1, NBars: 1, Protocol: core.LI,
		RPCTimeout: 200 * time.Millisecond,
	}
	trs := transport.NewInprocNetwork(2)
	n0 := node.New(trs[0], cfg)
	n0.Start()
	defer func() {
		n0.Close()
		trs[0].Close()
		trs[1].Close()
		n0.Wait()
	}()

	errc := make(chan string, 1)
	go func() {
		defer func() {
			r := recover()
			if r == nil {
				errc <- ""
				return
			}
			if re, ok := r.(interface{ Unwrap() error }); ok {
				errc <- re.Unwrap().Error()
			} else {
				panic(r)
			}
		}()
		n0.ReadU64(0) // faults to node 1, which never answers
	}()
	select {
	case msg := <-errc:
		if !strings.Contains(msg, "timeout") {
			t.Fatalf("fault against dead peer: got %q, want rpc timeout", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fault against dead peer hung past its RPC timeout")
	}
}
