package live

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
)

// failoverConfig is chaosConfig with a heartbeat timeout small enough
// that a leader election (randomized timeout derived from it) resolves
// in well under a second, instead of the soak default's tens of
// seconds. Liveness false positives are kept at bay by the 50ms
// heartbeat beacon.
func failoverConfig(nodes int, prot core.Protocol) Config {
	cfg := chaosConfig(nodes, prot, nil)
	cfg.HeartbeatTimeout = 2 * time.Second
	return cfg
}

// runAppFailover executes one workload on a supervised quorum cluster
// under a crash schedule that may kill node 0 — the coordinator — and
// returns the finished cluster and stats.
func runAppFailover(t *testing.T, name string, prot core.Protocol, nodes int,
	inner transport.Network, fcfg chaos.Config, opts RecoverOptions) (*Cluster, *Stats, *chaos.Net) {
	t.Helper()
	app, err := harness.NewApp(name, harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var cl *Cluster
	fcfg.OnCrash = func(n int, d time.Duration) { cl.Kill(n, d) }
	nw := chaos.WrapNet(inner, fcfg)
	cfg := failoverConfig(nodes, prot)
	cfg.Net = nw
	cl, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(cl)
	stats, err := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, opts)
	if err != nil {
		t.Fatalf("%s/%v/%dn failover run: %v (faults %+v)", name, prot, nodes, err, nw.Counters())
	}
	if err := app.Verify(cl); err != nil {
		t.Fatalf("%s/%v/%dn failed verification after failover: %v", name, prot, nodes, err)
	}
	return cl, stats, nw
}

// failoverChecks asserts the run actually exercised a coordinator
// failover: the kill fired, the supervisor restarted the victim, and
// the surviving replicas elected a new leader.
func failoverChecks(t *testing.T, stats *Stats, nw *chaos.Net) {
	t.Helper()
	if nw.Counters().Crashes == 0 {
		t.Fatal("crash schedule fired no kills — the soak exercised nothing")
	}
	if stats.Restarts == 0 {
		t.Error("kill fired but the supervisor recorded no restarts")
	}
	if stats.Total.ConsensusElections == 0 {
		t.Error("coordinator died but no replica recorded an election")
	}
	if stats.Total.ConsensusCommits == 0 {
		t.Error("replicated manager recorded no committed commands")
	}
	t.Logf("failover: terms=%d elections=%d commits=%d redirects=%d restarts=%d",
		stats.Total.ConsensusTerms, stats.Total.ConsensusElections,
		stats.Total.ConsensusCommits, stats.Total.LeaderRedirects, stats.Restarts)
}

// TestFailoverSoakInproc is the tentpole's end-to-end claim: all four
// paper workloads, both protocols, on a 4-node quorum cluster whose
// node 0 — barrier root, static coordinator, bootstrap leader — is
// killed mid-run. The survivors elect a new leader, roll the cluster
// back to the stable checkpoint committed on the replicated log,
// restart node 0, and still produce results byte-equal to a fault-free
// 1-node reference.
func TestFailoverSoakInproc(t *testing.T) {
	// Local send counts on node 0 include its consensus append beacons,
	// so even the lock-only apps (whose node 0 may otherwise go quiet)
	// reach the threshold while their run is in flight.
	atOp := map[string]int64{"jacobi": 30, "water": 100, "cholesky": 600, "tsp": 10}
	for _, name := range harness.AppNames {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			name, prot := name, prot
			t.Run(fmt.Sprintf("%s/%v", name, prot), func(t *testing.T) {
				t.Parallel()
				fcfg := chaos.Config{Seed: 11, Crashes: []chaos.Crash{
					{Node: 0, AtOp: atOp[name], Local: true, RestartAfter: 5 * time.Millisecond},
				}}
				opts := RecoverOptions{
					MaxRestarts:     4,
					CheckpointEvery: 1,
					Replicate:       true,
					Seed:            11,
				}
				got, stats, nw := runAppFailover(t, name, prot, 4, transport.NewInprocNet(4), fcfg, opts)
				failoverChecks(t, stats, nw)
				compareToReference(t, name, prot, got)
			})
		}
	}
}

// ckptConfirmKiller kills node 0 the moment the nth checkpoint
// confirmation leaves a surviving node's transport — the tightest
// window in the recovery protocol: the confirmation is committed on
// the quorum (or lost with the leader) while the sender blocks on the
// ack, so the failover must either serve the retry from the new leader
// or re-commit it idempotently.
type ckptConfirmKiller struct {
	kill  func()
	n     int64
	seen  atomic.Int64
	fired atomic.Bool
}

func (k *ckptConfirmKiller) MsgSent(from, to int, kind wire.Kind, bytes int) {
	if kind != wire.KCkptDone || from == 0 {
		return
	}
	if k.seen.Add(1) >= k.n && k.fired.CompareAndSwap(false, true) {
		k.kill()
	}
}

func (k *ckptConfirmKiller) PageFault(int, page.ID)               {}
func (k *ckptConfirmKiller) IntervalClosed(int, int32, []page.ID) {}
func (k *ckptConfirmKiller) DiffApplied(int, page.ID, int, int32) {}
func (k *ckptConfirmKiller) Invalidated(int, page.ID)             {}
func (k *ckptConfirmKiller) BarrierDeparted(int, int64)           {}

// TestFailoverMidConfirm kills the coordinator exactly when a
// checkpoint confirmation is in flight to it, and the run must still
// finish byte-identical to the reference.
func TestFailoverMidConfirm(t *testing.T) {
	app, err := harness.NewApp("jacobi", harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var cl *Cluster
	killer := &ckptConfirmKiller{n: 5}
	killer.kill = func() { cl.Kill(0, 5*time.Millisecond) }
	nw := chaos.WrapNet(transport.NewInprocNet(4), chaos.Config{Seed: 12})
	cfg := failoverConfig(4, core.LH)
	cfg.Net = nw
	cfg.Observer = killer
	cl, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(cl)
	stats, err := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, RecoverOptions{
		MaxRestarts: 4, CheckpointEvery: 1, Replicate: true, Seed: 12,
	})
	if err != nil {
		t.Fatalf("jacobi/LH mid-confirm failover: %v", err)
	}
	if err := app.Verify(cl); err != nil {
		t.Fatalf("verification after mid-confirm failover: %v", err)
	}
	if !killer.fired.Load() {
		t.Fatal("run finished before the fifth checkpoint confirmation — kill never fired")
	}
	if stats.Restarts == 0 {
		t.Error("kill fired but the supervisor recorded no restarts")
	}
	if stats.Total.ConsensusElections == 0 {
		t.Error("coordinator died mid-confirm but no replica recorded an election")
	}
	compareToReference(t, "jacobi", core.LH, cl)
}

// TestFailoverSoakTCP repeats a coordinator kill over real loopback
// sockets with frame faults in the mix, so leader re-resolution and
// the rejoin handshake run against TCP re-dial.
func TestFailoverSoakTCP(t *testing.T) {
	inner, err := transport.NewTCPLoopbackNet(4, transport.TCPOptions{
		DialBackoff:  time.Millisecond,
		DialAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	fcfg := chaos.Config{
		Seed:  13,
		DropP: 0.01,
		DupP:  0.02,
		Crashes: []chaos.Crash{
			{Node: 0, AtOp: 30, Local: true, RestartAfter: 5 * time.Millisecond},
		},
	}
	opts := RecoverOptions{
		MaxRestarts:     4,
		CheckpointEvery: 1,
		Replicate:       true,
		Seed:            13,
	}
	got, stats, nw := runAppFailover(t, "jacobi", core.LH, 4, inner, fcfg, opts)
	failoverChecks(t, stats, nw)
	compareToReference(t, "jacobi", core.LH, got)
}
