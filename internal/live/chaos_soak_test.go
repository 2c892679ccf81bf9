package live

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lrcdsm/internal/check"
	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
)

// chaosOpts are the recovery knobs used by the soak tests: aggressive
// retransmission so the injected faults resolve inside a test budget,
// and failure detection running (with a timeout generous enough that
// retry stalls are never mistaken for death).
func chaosConfig(nodes int, prot core.Protocol, nw transport.Network) Config {
	return Config{
		Nodes:            nodes,
		Protocol:         prot,
		Net:              nw,
		RPCTimeout:       60 * time.Second,
		RetryBase:        10 * time.Millisecond,
		RetryMax:         100 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second,
	}
}

// runAppChaos executes one workload under the invariant checker on a
// cluster whose network (nil: in-process) is wrapped with the given
// fault schedule and returns the finished cluster, the run stats and
// the injected-fault totals.
func runAppChaos(t *testing.T, name string, prot core.Protocol, nodes int,
	inner transport.Network, fcfg chaos.Config) (*Cluster, *Stats, chaos.Counters) {
	t.Helper()
	app, err := harness.NewApp(name, harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if inner == nil {
		inner = transport.NewInprocNet(nodes)
	}
	nw := chaos.WrapNet(inner, fcfg)
	cfg := chaosConfig(nodes, prot, nw)
	chk := check.New(nodes)
	cfg.Observer = chk
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(c)
	stats, err := c.Run(func(w core.Worker) { app.Worker(w) })
	faults := nw.Counters()
	if err != nil {
		t.Fatalf("%s/%v/%dn under %+v faults: %v", name, prot, nodes, faults, err)
	}
	checkerSaw(t, chk, name, prot, nodes, stats)
	if err := app.Verify(c); err != nil {
		t.Fatalf("%s/%v/%dn failed verification under faults: %v", name, prot, nodes, err)
	}
	return c, stats, faults
}

// compareToReference checks the faulty run's declared result regions
// word-for-word against a fault-free 1-node run of the same engine.
func compareToReference(t *testing.T, name string, prot core.Protocol, got *Cluster) {
	t.Helper()
	ref, _ := runApp(t, name, prot, 1, nil)
	app, err := harness.NewApp(name, harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	ra, ok := app.(harness.ResultApp)
	if !ok {
		t.Fatalf("%s does not declare result regions", name)
	}
	if vs := check.CompareRegions(got, ref, ra.ResultRegions()); len(vs) > 0 {
		for i, v := range vs {
			if i >= 5 {
				t.Errorf("... and %d more", len(vs)-5)
				break
			}
			t.Errorf("region mismatch: %s", v.String())
		}
	}
}

// TestChaosSoakInproc is the tentpole's end-to-end claim: all four paper
// workloads, both protocols, on a 4-node cluster whose every frame may
// be dropped, duplicated or reordered — and the computed results still
// match a fault-free 1-node reference exactly.
func TestChaosSoakInproc(t *testing.T) {
	for _, name := range harness.AppNames {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			name, prot := name, prot
			t.Run(fmt.Sprintf("%s/%v", name, prot), func(t *testing.T) {
				t.Parallel()
				fcfg := chaos.Config{
					Seed:     1,
					DropP:    0.03,
					DupP:     0.05,
					DelayP:   0.10,
					DelayMax: 2 * time.Millisecond,
				}
				got, stats, faults := runAppChaos(t, name, prot, 4, nil, fcfg)
				if faults.Total() == 0 {
					t.Fatal("soak injected no faults — the schedule is not exercising anything")
				}
				if faults.Dropped > 0 && stats.Total.RPCRetries == 0 {
					t.Errorf("%d drops injected but no RPC retransmissions recorded", faults.Dropped)
				}
				if faults.Duplicated > 0 && stats.Total.DupRequests+stats.Total.DupReplies == 0 {
					t.Errorf("%d duplicates injected but none de-duplicated", faults.Duplicated)
				}
				compareToReference(t, name, prot, got)
			})
		}
	}
}

// TestChaosSoakTCP repeats the soak over real loopback sockets with
// connection resets in the mix, so the re-dial + retransmit + receiver
// de-duplication path runs under protocol load.
func TestChaosSoakTCP(t *testing.T) {
	for _, tc := range []struct {
		app  string
		prot core.Protocol
	}{
		{"jacobi", core.LH},
		{"tsp", core.LI},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/%v", tc.app, tc.prot), func(t *testing.T) {
			t.Parallel()
			inner, err := transport.NewTCPLoopbackNet(4, transport.TCPOptions{
				DialBackoff:  time.Millisecond,
				DialAttempts: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			fcfg := chaos.Config{
				Seed:     2,
				DropP:    0.02,
				DupP:     0.03,
				DelayP:   0.05,
				DelayMax: 2 * time.Millisecond,
				ResetP:   0.08,
			}
			got, _, faults := runAppChaos(t, tc.app, tc.prot, 4, inner, fcfg)
			if faults.Resets == 0 {
				t.Error("TCP soak forced no connection resets")
			}
			compareToReference(t, tc.app, tc.prot, got)
		})
	}
}

// TestPartitionAbortsFast is the failure-detection claim: a node cut
// off for good from node 0 — the bootstrap manager leader and the
// partitioned peer's barrier-tree parent, so the run genuinely cannot
// progress — must not make the run ride out the 30s RPC timeout. The
// manager leader must convert the silence into a structured
// cluster-wide abort naming the suspect node and its pending operation.
// The judge is whichever leader hears a majority of the voters: node 1
// alone cannot depose node 0, so node 1 is named; node 0 cut off from
// two or three peers hears no majority and steps down, the other three
// elect a leader of their own, and it names node 0. (A partition that does not cut the
// synchronization tree, e.g. 0<->3 on four nodes, no longer necessarily
// stalls the run at all with the sync plane distributed;
// TestPartitionOffTreeCompletes covers that side.) The run has no
// restart budget, so this is also the test of a heartbeat verdict
// ending a run without one.
func TestPartitionAbortsFast(t *testing.T) {
	cases := []struct {
		name  string
		peers []int // node 0's partitioned peers
		want  int
	}{
		{"peer-cut-from-leader", []int{1}, 1},
		{"leader-cut-from-two", []int{1, 2}, 0},
		{"leader-cut-from-all", []int{1, 2, 3}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app, err := harness.NewApp("jacobi", harness.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			var parts []chaos.Partition
			for _, p := range tc.peers {
				parts = append(parts, chaos.Partition{A: 0, B: p}) // Dur 0: forever
			}
			cfg := chaosConfig(4, core.LH, chaos.WrapNet(transport.NewInprocNet(4), chaos.Config{Partitions: parts}))
			cfg.RPCTimeout = 30 * time.Second
			cfg.RetryBase = 10 * time.Millisecond
			cfg.HeartbeatTimeout = 250 * time.Millisecond
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			app.Configure(c)

			t0 := time.Now()
			done := make(chan error, 1)
			go func() {
				_, err := c.Run(func(w core.Worker) { app.Worker(w) })
				done <- err
			}()
			var runErr error
			select {
			case runErr = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("partitioned run hung instead of aborting")
			}
			elapsed := time.Since(t0)

			if runErr == nil {
				t.Fatal("partitioned run reported success")
			}
			var pd *node.PeerDownError
			if !errors.As(runErr, &pd) {
				t.Fatalf("want *node.PeerDownError, got %T: %v", runErr, runErr)
			}
			if pd.Node != tc.want {
				t.Errorf("suspect node = %d, want %d (the partitioned peer)", pd.Node, tc.want)
			}
			if pd.Pending == "" {
				t.Error("abort names no pending operation")
			}
			if pd.Silence < cfg.HeartbeatTimeout {
				t.Errorf("declared down after %v of silence, before the %v timeout", pd.Silence, cfg.HeartbeatTimeout)
			}
			// Failure must come from the heartbeat monitor, not the RPC timeout.
			if elapsed > 10*time.Second {
				t.Errorf("abort took %v — heartbeat detection (timeout %v) did not fire", elapsed, cfg.HeartbeatTimeout)
			}
			t.Logf("aborted in %v: %v", elapsed, runErr)
		})
	}
}

// TestPartitionOffTreeCompletes is the decentralization dividend: a
// permanent partition between two nodes that share no synchronization
// edge (0 and 3 are neither tree parent/child nor home/user of each
// other's pages in a band-partitioned workload) no longer stalls the
// run at all — under the old centralized manager every node needed node
// 0 for every lock and barrier, so this exact schedule used to deadlock
// until failure detection killed the cluster. The results must still
// match the fault-free 1-node reference.
func TestPartitionOffTreeCompletes(t *testing.T) {
	fcfg := chaos.Config{
		Partitions: []chaos.Partition{{A: 0, B: 3}}, // Dur 0: forever
	}
	got, _, _ := runAppChaos(t, "jacobi", core.LH, 4, nil, fcfg)
	compareToReference(t, "jacobi", core.LH, got)
}

// TestLockHomeHolderPartition aims transient partitions at the
// distributed lock plane's hard case: the home (node 1 for lock 1) cut
// off from requesters and from the probable owner it must forward to.
// While a window is open, a request forwarded to an unreachable owner
// is lost and the requester-retry -> home-re-forward -> owner-re-grant
// chain must ride it out after the heal; through it all the lock must
// stay mutually exclusive, which the exact final count proves.
func TestLockHomeHolderPartition(t *testing.T) {
	for _, prot := range []core.Protocol{core.LI, core.LH} {
		prot := prot
		t.Run(prot.String(), func(t *testing.T) {
			t.Parallel()
			const iters = 3000
			nw := chaos.WrapNet(transport.NewInprocNet(4), chaos.Config{
				Seed: 7,
				Partitions: []chaos.Partition{
					{A: 1, B: 2, From: 0, Dur: 150 * time.Millisecond},
					{A: 1, B: 0, From: 200 * time.Millisecond, Dur: 150 * time.Millisecond},
					{A: 1, B: 3, From: 400 * time.Millisecond, Dur: 150 * time.Millisecond},
				},
			})
			c, err := New(chaosConfig(4, prot, nw))
			if err != nil {
				t.Fatal(err)
			}
			a := c.Alloc(8)
			c.NewLock() // lock 0 (homed at 0), unused
			lk := c.NewLock()
			if lk != 1 {
				t.Fatalf("lock id = %d, want 1 (homed at node 1)", lk)
			}
			c.InitU64(a, 0)
			stats, err := c.Run(func(w core.Worker) {
				for i := 0; i < iters; i++ {
					w.Lock(lk)
					w.WriteU64(a, w.ReadU64(a)+1)
					w.Unlock(lk)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := c.PeekU64(a); got != 4*iters {
				t.Fatalf("counter = %d, want %d — lock plane lost mutual exclusion or updates", got, 4*iters)
			}
			if stats.Total.LockHandoffs == 0 {
				t.Error("contended run recorded no lock handoffs")
			}
			if stats.Total.RPCRetries == 0 {
				t.Error("partition windows forced no retransmissions")
			}
		})
	}
}
