package live

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/node"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
)

// crashAt is one kill-schedule entry with the soaks' 5 ms restart
// delay.
func crashAt(victim int, at CrashEvent, n int64) Crash {
	return Crash{Node: victim, At: at, N: n, RestartAfter: 5 * time.Millisecond}
}

// crashSchedule kills node 2 (never the manager) twice per workload; the
// second entry counts from the victim's rejoin. Each N sits well inside
// node 2's own traffic at test scale on 4 nodes: jacobi releases 4
// times per node and water 130 times. tsp and cholesky hand out tasks
// from a shared queue, and a node that finds it drained releases
// nothing: tsp's node 2 releases 0-3 times, and cholesky's 0-264 (40
// dsmd runs per protocol; in one LI run node 0 drained the queue alone,
// 710 releases to 0 0 0). Their kills land at the cluster's first page
// fault instead, which every run reaches while every worker is still
// busy (4-551 faults a run under LI, 21 under LH).
func crashSchedule(app string) []Crash {
	switch app {
	case "tsp", "cholesky":
		return []Crash{crashAt(2, AtFault, 1), crashAt(2, AtFault, 1)}
	case "water":
		return []Crash{crashAt(2, AtRelease, 40), crashAt(2, AtRelease, 20)}
	}
	return []Crash{crashAt(2, AtRelease, 2), crashAt(2, AtRelease, 2)}
}

// runAppSupervised executes one workload on a supervised cluster and
// returns the finished cluster and stats. The run must succeed, verify,
// and restart exactly once per scheduled kill: a kill that never fires
// fails the test.
func runAppSupervised(t *testing.T, name string, cfg Config, opts RecoverOptions) (*Cluster, *Stats) {
	t.Helper()
	app, err := harness.NewApp(name, harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(cl)
	stats, err := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, opts)
	if err != nil {
		t.Fatalf("%s/%v/%dn supervised run: %v", name, cfg.Protocol, cfg.Nodes, err)
	}
	if err := app.Verify(cl); err != nil {
		t.Fatalf("%s/%v/%dn failed verification after recovery: %v", name, cfg.Protocol, cfg.Nodes, err)
	}
	if want := int64(len(opts.Crashes)); stats.Restarts != want {
		t.Fatalf("%s/%v/%dn: %d restarts, want one per scheduled kill (%d)", name, cfg.Protocol, cfg.Nodes, stats.Restarts, want)
	}
	if stats.RecoveryNs == 0 && stats.Restarts > 0 {
		t.Error("restarts recorded but no recovery time")
	}
	return cl, stats
}

// runAppAborted executes one workload on a supervised cluster whose
// schedule ends in a kill the budget cannot cover: the run must end in
// a *node.PeerDownError naming the last entry's victim. It returns the
// verdict and how long the run took to reach it.
func runAppAborted(t *testing.T, name string, cfg Config, opts RecoverOptions) (*node.PeerDownError, time.Duration) {
	t.Helper()
	app, err := harness.NewApp(name, harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(cl)
	t0 := time.Now()
	_, runErr := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, opts)
	elapsed := time.Since(t0)
	var pd *node.PeerDownError
	if !errors.As(runErr, &pd) {
		t.Fatalf("want *node.PeerDownError, got %T: %v", runErr, runErr)
	}
	if last := opts.Crashes[len(opts.Crashes)-1].Node; pd.Node != last {
		t.Fatalf("abort names node %d, want %d (the last scheduled victim): %v", pd.Node, last, runErr)
	}
	return pd, elapsed
}

// TestRecoverySoakInproc is the tentpole's end-to-end claim: all four
// paper workloads, both protocols, on a 4-node cluster whose node 2 is
// killed twice mid-run — and the cluster checkpoints, rolls back,
// restarts the victim and still produces results byte-equal to a
// fault-free 1-node reference.
func TestRecoverySoakInproc(t *testing.T) {
	for _, name := range harness.AppNames {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			name, prot := name, prot
			t.Run(fmt.Sprintf("%s/%v", name, prot), func(t *testing.T) {
				t.Parallel()
				cfg := chaosConfig(4, prot, nil)
				cfg.Net = transport.NewInprocNet(4)
				got, stats := runAppSupervised(t, name, cfg, RecoverOptions{
					MaxRestarts:     4,
					CheckpointEvery: 1,
					Replicate:       true,
					Seed:            1,
					Crashes:         crashSchedule(name),
				})
				// Barrier apps checkpoint at every episode; the lock-only
				// apps (no barriers) legitimately roll back to the initial
				// image instead.
				if name == "jacobi" || name == "water" {
					if stats.Total.CheckpointsTaken == 0 {
						t.Error("barrier app completed recovery without taking any checkpoints")
					}
					if stats.Total.CheckpointBytes == 0 {
						t.Error("checkpoints taken but no bytes recorded")
					}
				}
				compareToReference(t, name, prot, got)
			})
		}
	}
}

// TestRecoverySoakTCP repeats the crash-recovery soak over real loopback
// sockets with frame faults in the mix, so rejoin runs against the TCP
// boot-id handshake and re-dial path.
func TestRecoverySoakTCP(t *testing.T) {
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
			cfg := chaosConfig(4, tc.prot, nil)
			cfg.Net = chaos.WrapNet(inner, chaos.Config{Seed: 2, DropP: 0.01, DupP: 0.02})
			got, _ := runAppSupervised(t, tc.app, cfg, RecoverOptions{
				MaxRestarts:     4,
				CheckpointEvery: 1,
				Replicate:       true,
				Seed:            2,
				Crashes:         crashSchedule(tc.app),
			})
			compareToReference(t, tc.app, tc.prot, got)
		})
	}
}

// TestRecoveryLostStore kills a node AND discards its checkpoint store,
// forcing the rejoin to pull the stable snapshot back from the manager's
// replica page by page: in process, and over loopback TCP with dropped
// and duplicated frames, so the pull's retransmissions and the leader's
// reply cache run over real sockets. A tap on every transport counts
// the pull's snap-req frames.
func TestRecoveryLostStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func(t *testing.T) transport.Network
	}{
		{"inproc", func(*testing.T) transport.Network { return transport.NewInprocNet(4) }},
		{"tcp-chaos", func(t *testing.T) transport.Network {
			inner, err := transport.NewTCPLoopbackNet(4, transport.TCPOptions{
				DialBackoff:  time.Millisecond,
				DialAttempts: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			return chaos.WrapNet(inner, chaos.Config{Seed: 3, DropP: 0.01, DupP: 0.02})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pulls := &kindCounter{Network: tc.net(t), kind: wire.KSnapReq}
			cfg := chaosConfig(4, core.LH, nil)
			cfg.Net = pulls
			got, _ := runAppSupervised(t, "jacobi", cfg, RecoverOptions{
				MaxRestarts:     4,
				CheckpointEvery: 1,
				Replicate:       true,
				Seed:            3,
				LoseStore:       true,
				Crashes:         []Crash{crashAt(2, AtRelease, 3)},
			})
			compareToReference(t, "jacobi", core.LH, got)
			if pulls.n.Load() == 0 {
				t.Error("the rejoin sent no snap-req: it did not pull its snapshot from the manager")
			}
			t.Logf("%d snap-req frames", pulls.n.Load())
		})
	}
}

// kindCounter counts the frames of one kind sent through every
// transport of a network, a rejoined node's fresh one included.
type kindCounter struct {
	transport.Network
	kind wire.Kind
	n    atomic.Int64
}

func (c *kindCounter) Transports() []transport.Transport {
	trs := c.Network.Transports()
	out := make([]transport.Transport, len(trs))
	for i, tr := range trs {
		out[i] = &countingTransport{Transport: tr, c: c}
	}
	return out
}

func (c *kindCounter) Rejoin(i int) (transport.Transport, error) {
	tr, err := c.Network.Rejoin(i)
	if err != nil {
		return nil, err
	}
	return &countingTransport{Transport: tr, c: c}, nil
}

type countingTransport struct {
	transport.Transport
	c *kindCounter
}

func (t *countingTransport) Send(to int, payload []byte) error {
	if len(payload) > 1 && wire.Kind(payload[1]) == t.c.kind {
		t.c.n.Add(1)
	}
	return t.Transport.Send(to, payload)
}

// TestRecoveryDirStore runs one crash-recovery cycle with on-disk
// checkpoint stores, proving the serialized snapshot round-trips through
// a real filesystem during recovery. A checkpoint is nothing but the
// nodes' own snapshots: without replication each store directory holds
// only its node's ep<k>-node<i>.ckpt files.
func TestRecoveryDirStore(t *testing.T) {
	stores := make([]ckpt.Store, 4)
	dirs := make([]string, len(stores))
	for i := range stores {
		dirs[i] = t.TempDir()
		s, err := ckpt.NewDirStore(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	cfg := chaosConfig(4, core.LI, nil)
	cfg.Net = transport.NewInprocNet(4)
	got, _ := runAppSupervised(t, "jacobi", cfg, RecoverOptions{
		MaxRestarts:     2,
		CheckpointEvery: 1,
		Stores:          stores,
		Seed:            4,
		Crashes:         []Crash{{Node: 1, At: AtRelease, N: 3}},
	})
	compareToReference(t, "jacobi", core.LI, got)
	for i, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		own := regexp.MustCompile(fmt.Sprintf(`^ep[0-9]+-node%d\.ckpt$`, i))
		for _, e := range ents {
			if !own.MatchString(e.Name()) {
				t.Errorf("node %d's store holds %s, want only ep<k>-node%d.ckpt files", i, e.Name(), i)
			}
		}
		if len(ents) == 0 {
			t.Errorf("node %d's store is empty", i)
		}
	}
}

// TestRecoveryLockHomeCrash kills node 1 — the home of tsp's min-cost
// lock (lock 1 homes at 1 % 4) — twice, mid-handoff traffic, so the
// rollback must rebuild a lock home whose owner pointer and grant
// caches died with it. The recovered run must still match the
// fault-free 1-node reference byte for byte.
func TestRecoveryLockHomeCrash(t *testing.T) {
	for _, prot := range []core.Protocol{core.LI, core.LH} {
		prot := prot
		t.Run(prot.String(), func(t *testing.T) {
			t.Parallel()
			cfg := chaosConfig(4, prot, nil)
			cfg.Net = transport.NewInprocNet(4)
			got, _ := runAppSupervised(t, "tsp", cfg, RecoverOptions{
				MaxRestarts:     4,
				CheckpointEvery: 1,
				Replicate:       true,
				Seed:            8,
				Crashes:         []Crash{crashAt(1, AtFault, 1), crashAt(1, AtFault, 1)},
			})
			compareToReference(t, "tsp", prot, got)
		})
	}
}

// TestPartitionHealSupervised runs a supervised cluster through a
// transient partition window that heals on its own: retransmission must
// ride it out without the supervisor burning a restart.
func TestPartitionHealSupervised(t *testing.T) {
	cfg := chaosConfig(4, core.LH, nil)
	cfg.Net = chaos.WrapNet(transport.NewInprocNet(4), chaos.Config{
		Seed: 5,
		Partitions: []chaos.Partition{
			{A: 0, B: 3, From: 50 * time.Millisecond, Dur: 200 * time.Millisecond},
		},
	})
	got, _ := runAppSupervised(t, "water", cfg, RecoverOptions{MaxRestarts: 2, CheckpointEvery: 1, Seed: 5})
	compareToReference(t, "water", core.LH, got)
}

// TestRestartBudgetExhausted is the degradation claim: with the restart
// budget set to zero, a kill ends the run at once with the PeerDownError
// a spent budget gives, naming the victim — not by riding out the RPC
// deadline. (A heartbeat verdict ending a run without a budget is
// TestPartitionAbortsFast.)
func TestRestartBudgetExhausted(t *testing.T) {
	cfg := chaosConfig(4, core.LH, nil)
	cfg.Net = transport.NewInprocNet(4)
	cfg.RPCTimeout = 30 * time.Second
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	pd, elapsed := runAppAborted(t, "jacobi", cfg, RecoverOptions{
		MaxRestarts: 0,
		Crashes:     []Crash{{Node: 2, At: AtRelease, N: 2}},
	})
	if elapsed > 10*time.Second {
		t.Errorf("abort took %v — the kill did not end the run", elapsed)
	}
	t.Logf("degraded to structured abort in %v: %v", elapsed, pd)
}
