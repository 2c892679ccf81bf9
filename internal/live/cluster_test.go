package live

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lrcdsm/internal/check"
	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/transport"
)

// runApp executes one workload on a live cluster under the invariant
// checker and verifies its result, returning the finished cluster for
// memory comparison. The checker fails the run before the byte compare
// (checkerSaw). A nil nw selects the in-process network.
func runApp(t *testing.T, name string, prot core.Protocol, nodes int, nw transport.Network) (*Cluster, *Stats) {
	t.Helper()
	app, err := harness.NewApp(name, harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	chk := check.New(nodes)
	c, err := New(Config{
		Nodes:      nodes,
		Protocol:   prot,
		Net:        nw,
		Observer:   chk,
		RPCTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(c)
	stats, err := c.Run(func(w core.Worker) { app.Worker(w) })
	if err != nil {
		t.Fatalf("%s/%v/%dn: %v", name, prot, nodes, err)
	}
	checkerSaw(t, chk, name, prot, nodes, stats)
	if err := app.Verify(c); err != nil {
		t.Fatalf("%s/%v/%dn failed verification: %v", name, prot, nodes, err)
	}
	return c, stats
}

// checkerSaw fails the test if chk found a violation, or if it did not
// see every interval close and every diff application the nodes
// counted. A run in which two or more nodes made diffs must also apply
// diffs, except 2-node jacobi under LI, where each node writes only the
// pages it homes: a checker that saw none has checked nothing. A run
// with one writer may apply none: when node 0, home of tsp's task
// cursor, takes every task, the others read its pages from the home.
func checkerSaw(t *testing.T, chk *check.Checker, name string, prot core.Protocol, nodes int, stats *Stats) {
	t.Helper()
	if err := chk.Err(); err != nil {
		t.Fatalf("%s/%v/%dn: %v", name, prot, nodes, err)
	}
	iv, d := chk.Seen()
	if iv == 0 || int64(iv) != stats.Total.Intervals || int64(d) != stats.Total.DiffsApplied {
		t.Fatalf("%s/%v/%dn: the checker saw %d intervals and %d diff applications, the nodes counted %d and %d",
			name, prot, nodes, iv, d, stats.Total.Intervals, stats.Total.DiffsApplied)
	}
	writers := 0
	for _, ns := range stats.PerNode {
		if ns.DiffsCreated > 0 {
			writers++
		}
	}
	if d == 0 && writers > 1 && !(name == "jacobi" && prot == core.LI && nodes == 2) {
		t.Fatalf("%s/%v/%dn: the checker saw no diff applications", name, prot, nodes)
	}
}

// TestAppsOnInprocCluster is the live runtime's end-to-end correctness
// test: all four paper workloads on 4- and 2-node in-process clusters
// under both supported protocols, held to the invariant checker, with
// the declared result regions compared word-for-word (floats within
// tolerance) against a 1-node reference run of the same live engine.
func TestAppsOnInprocCluster(t *testing.T) {
	for _, nodes := range []int{4, 2} {
		for _, name := range harness.AppNames {
			for _, prot := range []core.Protocol{core.LI, core.LH} {
				sub := fmt.Sprintf("%s/%v", name, prot)
				if nodes != 4 {
					sub = fmt.Sprintf("%dn/%s", nodes, sub)
				}
				t.Run(sub, func(t *testing.T) {
					t.Parallel()
					got, _ := runApp(t, name, prot, nodes, nil)
					compareToReference(t, name, prot, got)
				})
			}
		}
	}
}

// TestProtocolCounters checks that the protocol actually exercised its
// machinery: LI invalidates, LH pulls diffs, and both move diffs to the
// homes at releases.
func TestProtocolCounters(t *testing.T) {
	_, li := runApp(t, "jacobi", core.LI, 4, nil)
	if li.Total.Invalidations == 0 {
		t.Error("LI run performed no invalidations")
	}
	if li.Total.PageFaults == 0 || li.Total.PageFetches == 0 {
		t.Errorf("LI run: faults=%d fetches=%d, want > 0", li.Total.PageFaults, li.Total.PageFetches)
	}
	if li.Total.DiffsCreated == 0 || li.Total.DiffsApplied == 0 {
		t.Errorf("LI run: diffs created=%d applied=%d, want > 0", li.Total.DiffsCreated, li.Total.DiffsApplied)
	}
	if li.Total.BarrierEpisodes == 0 {
		t.Error("LI jacobi crossed no barriers")
	}
	if li.Total.CheckpointsTaken != 0 || li.Total.ConsensusTerms != 0 {
		t.Errorf("run without a restart budget built recovery machinery: %d checkpoints, %d consensus terms",
			li.Total.CheckpointsTaken, li.Total.ConsensusTerms)
	}

	_, lh := runApp(t, "jacobi", core.LH, 4, nil)
	if lh.Total.DiffPulls == 0 {
		t.Error("LH run pulled no diffs")
	}
	if lh.Total.Invalidations >= li.Total.Invalidations {
		t.Errorf("LH invalidations (%d) should be fewer than LI (%d)",
			lh.Total.Invalidations, li.Total.Invalidations)
	}

	_, tsp := runApp(t, "tsp", core.LH, 4, nil)
	if tsp.Total.LockAcquires == 0 {
		t.Error("TSP acquired no locks")
	}
}

// TestWorkerPanicSurfaces checks that an application panic on one node
// aborts the whole run instead of deadlocking the others, and that the
// run's error is the panic itself, not the teardown error it caused on
// the node that was waiting at the barrier.
func TestWorkerPanicSurfaces(t *testing.T) {
	c, err := New(Config{Nodes: 2, RPCTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a := c.Alloc(64)
	bar := c.NewBarrier()
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(func(w core.Worker) {
			if w.ID() == 1 {
				panic("application bug")
			}
			w.WriteU64(a, 1)
			w.Barrier(bar)
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with panicking worker returned nil error")
		}
		if !strings.Contains(err.Error(), "application bug") {
			t.Fatalf("run error is not the worker's panic: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with panicking worker hung")
	}
}

// TestConfigValidation covers the constructor's rejection paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("Nodes=0 accepted")
	}
	if _, err := New(Config{Nodes: 2, PageSize: 100}); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := New(Config{Nodes: 2, Protocol: core.EI}); err == nil {
		t.Error("eager protocol accepted by live runtime")
	}
	if _, err := New(Config{Nodes: 2, Net: transport.NewInprocNet(3)}); err == nil {
		t.Error("mismatched transport count accepted")
	}
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(func(core.Worker) {}); err == nil {
		t.Error("run without allocations accepted")
	}
}
