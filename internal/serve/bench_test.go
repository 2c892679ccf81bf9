package serve_test

import (
	"sync"
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live"
	"lrcdsm/internal/serve"
)

// startDirect brings up a 1-node direct-mode server with one executor —
// the configuration dsmbench's serve.do_*_ns probes time — and returns
// it with the function that shuts it down and checks the run.
func startDirect(tb testing.TB) (*serve.Server, func()) {
	tb.Helper()
	cl, err := live.New(live.Config{Nodes: 1, Protocol: core.LH})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := serve.NewStore(cl, serve.Config{Keys: 1 << 15, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	srv := serve.NewServer(st)
	done := make(chan error, 1)
	go func() {
		_, rerr := cl.Run(srv.NodeWorker)
		done <- rerr
	}()
	return srv, func() {
		srv.Shutdown()
		if rerr := <-done; rerr != nil {
			tb.Fatalf("cluster run: %v", rerr)
		}
	}
}

func benchDo(b *testing.B, put bool, callers int) {
	srv, stop := startDirect(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		n := b.N / callers
		if c == 0 {
			n += b.N % callers
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := uint64(c*n+i) & (1<<15 - 1)
				if _, err := srv.Do(put, k, k+1); err != nil {
					b.Error(err)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkDoGet and BenchmarkDoPut time one caller's Do on a 1-node
// cluster. The caller always finds the executor parked, so every op
// runs inline on its borrowed lane: a local lock re-acquire, one shared
// access and the release, with no hand-off. BenchmarkDoGetParallel has
// eight callers: while one holds the lane the others queue, so it times
// both paths, and the executor's batches group.
func BenchmarkDoGet(b *testing.B)         { benchDo(b, false, 1) }
func BenchmarkDoPut(b *testing.B)         { benchDo(b, true, 1) }
func BenchmarkDoGetParallel(b *testing.B) { benchDo(b, false, 8) }
