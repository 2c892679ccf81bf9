package live

import (
	"fmt"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/transport"
)

// failoverConfig is chaosConfig with a heartbeat timeout small enough
// that a leader election (randomized timeout derived from it) resolves
// in well under a second, instead of the soak default's tens of
// seconds. Liveness false positives are kept at bay by the leader's
// appends, which every peer acks each 50ms (election timeout / 10).
func failoverConfig(nodes int, prot core.Protocol) Config {
	cfg := chaosConfig(nodes, prot, nil)
	cfg.HeartbeatTimeout = 2 * time.Second
	return cfg
}

// failoverChecks asserts the run actually exercised a coordinator
// failover: the surviving replicas elected a new leader and kept
// committing.
func failoverChecks(t *testing.T, stats *Stats) {
	t.Helper()
	if stats.Total.ConsensusElections == 0 {
		t.Error("coordinator died but no replica recorded an election")
	}
	if stats.Total.ConsensusCommits == 0 {
		t.Error("replicated manager recorded no committed commands")
	}
	t.Logf("failover: terms=%d elections=%d commits=%d redirects=%d restarts=%d recovery=%v",
		stats.Total.ConsensusTerms, stats.Total.ConsensusElections,
		stats.Total.ConsensusCommits, stats.Total.LeaderRedirects, stats.Restarts,
		time.Duration(stats.RecoveryNs))
}

// coordinatorKill is each app's kill of node 0 at test scale on 4
// nodes: jacobi's node 0 releases 4 times and water's 350. tsp's node 0
// homes every page it reads and may dequeue no task, so it may neither
// fault nor release; cholesky's releases 42-710 times in 40 dsmd runs
// per protocol, but only because another node may drain the task queue
// just as well. Both die at the cluster's first page fault, which every
// run reaches.
var coordinatorKill = map[string]Crash{
	"jacobi":   crashAt(0, AtRelease, 2),
	"water":    crashAt(0, AtRelease, 100),
	"cholesky": crashAt(0, AtFault, 1),
	"tsp":      crashAt(0, AtFault, 1),
}

// TestFailoverSoakInproc is the tentpole's end-to-end claim: all four
// paper workloads, both protocols, on a 4-node quorum cluster whose
// node 0 — barrier root, static coordinator, bootstrap leader — is
// killed mid-run. The survivors elect a new leader, roll the cluster
// back to the stable checkpoint committed on the replicated log,
// restart node 0, and still produce results byte-equal to a fault-free
// 1-node reference.
func TestFailoverSoakInproc(t *testing.T) {
	for _, name := range harness.AppNames {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			name, prot := name, prot
			t.Run(fmt.Sprintf("%s/%v", name, prot), func(t *testing.T) {
				t.Parallel()
				cfg := failoverConfig(4, prot)
				cfg.Net = transport.NewInprocNet(4)
				got, stats := runAppSupervised(t, name, cfg, RecoverOptions{
					MaxRestarts:     4,
					CheckpointEvery: 1,
					Replicate:       true,
					Seed:            11,
					Crashes:         []Crash{coordinatorKill[name]},
				})
				failoverChecks(t, stats)
				compareToReference(t, name, prot, got)
			})
		}
	}
}

// TestFailoverMidConfirm kills the coordinator the moment the fifth
// checkpoint confirmation leaves a surviving node — the tightest window
// in the recovery protocol: the confirmation is committed on the quorum
// (or lost with the leader) while the sender blocks on the ack, so the
// failover must either serve the retry from the new leader or re-commit
// it idempotently. The run must still finish byte-identical to the
// reference.
func TestFailoverMidConfirm(t *testing.T) {
	cfg := failoverConfig(4, core.LH)
	cfg.Net = transport.NewInprocNet(4)
	got, stats := runAppSupervised(t, "jacobi", cfg, RecoverOptions{
		MaxRestarts: 4, CheckpointEvery: 1, Replicate: true, Seed: 12,
		Crashes: []Crash{crashAt(0, AtCkptConfirm, 5)},
	})
	if stats.Total.ConsensusElections == 0 {
		t.Error("coordinator died mid-confirm but no replica recorded an election")
	}
	compareToReference(t, "jacobi", core.LH, got)
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
	cfg := failoverConfig(4, core.LH)
	cfg.Net = chaos.WrapNet(inner, chaos.Config{Seed: 13, DropP: 0.01, DupP: 0.02})
	got, stats := runAppSupervised(t, "jacobi", cfg, RecoverOptions{
		MaxRestarts:     4,
		CheckpointEvery: 1,
		Replicate:       true,
		Seed:            13,
		Crashes:         []Crash{coordinatorKill["jacobi"]},
	})
	failoverChecks(t, stats)
	compareToReference(t, "jacobi", core.LH, got)
}
