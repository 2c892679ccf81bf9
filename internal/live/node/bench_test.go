package node_test

import (
	"sync"
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

// BenchmarkFirstWriteLane: BenchmarkFirstWrite through a LaneWorker,
// whose first write to a page saves only the 64-byte region it touches.
func BenchmarkFirstWriteLane(b *testing.B) {
	nd := benchNode(b)
	w := nd.LaneWorker(1)
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

// BenchmarkLockLocal: Lock and Unlock of a lock the node owns, with no
// writes in between — the zero-message acquire and release a polling
// worker and a serve get make. It reads no clock and allocates nothing.
func BenchmarkLockLocal(b *testing.B) {
	var w core.Worker = benchNode(b)
	w.Lock(0)
	w.Unlock(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Lock(0)
		w.Unlock(0)
	}
}

// benchPair starts two nodes sharing one page homed at node 1 and two
// locks, over the in-process transport or loopback TCP.
func benchPair(b *testing.B, tcp bool) (*node.Node, *node.Node) {
	b.Helper()
	trs := transport.NewInprocNetwork(2)
	if tcp {
		var err error
		if trs, err = transport.NewTCPLoopback(2, transport.TCPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	cfg := node.Config{
		PageSize: 4096, NPages: 1, Homes: []int32{1},
		NLocks: 2, NBars: 1, Protocol: core.LH, HeartbeatTimeout: -1,
	}
	nodes := []*node.Node{node.New(trs[0], cfg), node.New(trs[1], cfg)}
	for _, nd := range nodes {
		nd.Start()
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
		for _, nd := range nodes {
			nd.Wait()
		}
	})
	return nodes[0], nodes[1]
}

// BenchmarkUnlockDirtyRemote: one release that dirtied a page homed on
// the other node — a local re-acquire, one write, and an Unlock that
// diffs the page and flushes it home. The blocking release paid the
// flush round trip here; the lazy one pays the send.
func BenchmarkUnlockDirtyRemote(b *testing.B) {
	w, _ := benchPair(b, false)
	w.Lock(0)
	w.WriteU64(0, 1)
	w.Unlock(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Lock(0)
		w.WriteU64(0, uint64(i))
		w.Unlock(0)
	}
	b.StopTimer()
	w.FinalFlush()
}

// benchHandoffDirty ping-pongs one lock between two nodes around one
// written word: every acquire is a remote hand-off carrying a write
// notice, every release flushes a diff (node 0's to the other node, node
// 1's to itself). The two workers take turns through a pair of
// channels, so one op is exactly one hand-off.
func benchHandoffDirty(b *testing.B, tcp bool) {
	n0, n1 := benchPair(b, tcp)
	turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, w := range []*node.Node{n0, n1} {
		wg.Add(1)
		go func(w *node.Node) {
			defer wg.Done()
			for i := 0; i < b.N/2; i++ {
				<-turn[w.ID()]
				w.Lock(0)
				w.WriteU64(0, w.ReadU64(0)+1)
				w.Unlock(0)
				turn[1-w.ID()] <- struct{}{}
			}
		}(w)
	}
	turn[0] <- struct{}{}
	wg.Wait()
}

// BenchmarkHandoffDirty: the contended hand-off of a lock that carries
// writes, in-process.
func BenchmarkHandoffDirty(b *testing.B) { benchHandoffDirty(b, false) }

// BenchmarkHandoffDirtyTCP: the same over loopback TCP.
func BenchmarkHandoffDirtyTCP(b *testing.B) { benchHandoffDirty(b, true) }
