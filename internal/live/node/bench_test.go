package node_test

import (
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
)

// The shared-access microbenchmarks run on a one-node cluster (every
// page homed and valid, so nothing ever faults) and go through the
// core.Worker interface, the call the applications make. `make
// bench-node` runs them; dsmbench's node.read_hit_ns / node.write_hit_ns
// probes measure the same two paths inside a two-node cluster.

const benchPages = 256

func benchNode(b *testing.B) *node.Node {
	b.Helper()
	trs := transport.NewInprocNetwork(1)
	nd := node.New(trs[0], node.Config{
		PageSize: 4096, NPages: benchPages, Homes: make([]int32, benchPages),
		NLocks: 1, NBars: 1, Protocol: core.LH,
	})
	nd.Start()
	b.Cleanup(func() {
		nd.Close()
		trs[0].Close()
		nd.Wait()
	})
	return nd
}

var benchSink uint64

func benchReadHit(b *testing.B, w core.Worker) {
	w.WriteU64(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var v uint64
	for i := 0; i < b.N; i++ {
		v += w.ReadU64(0)
	}
	benchSink = v
}

// BenchmarkReadHit: the own worker's read of a valid page.
func BenchmarkReadHit(b *testing.B) { benchReadHit(b, benchNode(b)) }

// BenchmarkReadHitLane: the same read through a LaneWorker, which keeps
// the node mutex (what the path cost before it went lock-free).
func BenchmarkReadHitLane(b *testing.B) { benchReadHit(b, benchNode(b).LaneWorker(1)) }

// BenchmarkWriteHit: the own worker's write to a page already twinned
// this interval.
func BenchmarkWriteHit(b *testing.B) {
	var w core.Worker = benchNode(b)
	w.WriteU64(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WriteU64(0, uint64(i))
	}
}

// BenchmarkFirstWrite: the first write of an interval to a page — the
// locked path that twins it. Every benchPages writes the interval is
// closed off the clock (that diffs the pages and frees the twins).
func BenchmarkFirstWrite(b *testing.B) {
	nd := benchNode(b)
	var w core.Worker = nd
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := i % benchPages
		if pg == 0 && i > 0 {
			b.StopTimer()
			nd.FinalFlush()
			b.StartTimer()
		}
		w.WriteU64(core.Addr(pg*4096), uint64(i))
	}
}
