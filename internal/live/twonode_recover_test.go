package live

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
)

// TestRecoveryTwoNodes runs jacobi on a supervised two-node cluster,
// where node 0 alone forms the manager's voting group. Killing node 1
// twice recovers through that one-voter group and must still match the
// fault-free 1-node reference byte for byte. Killing node 0 leaves no
// replica that could lead a rollback: the run must end promptly with
// the structured abort, a PeerDownError naming node 0.
func TestRecoveryTwoNodes(t *testing.T) {
	cases := []struct {
		name   string
		victim int
		twice  bool // kill the victim again once it has rejoined
	}{
		{"follower-twice", 1, true},
		{"sole-voter", 0, false},
	}
	for i, tc := range cases {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			tc, prot, seed := tc, prot, int64(31+i)
			t.Run(fmt.Sprintf("%s/%v", tc.name, prot), func(t *testing.T) {
				t.Parallel()
				app, err := harness.NewApp("jacobi", harness.ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				var cl *Cluster
				fcfg := chaos.Config{Seed: seed, Crashes: []chaos.Crash{
					{Node: tc.victim, AtOp: 10, Local: true, RestartAfter: 5 * time.Millisecond},
				}}
				fcfg.OnCrash = func(n int, d time.Duration) { cl.Kill(n, d) }
				nw := chaos.WrapNet(transport.NewInprocNet(2), fcfg)
				cfg := failoverConfig(2, prot)
				cfg.Net = nw
				// The second kill is keyed on the rejoin, so it cannot land
				// inside the first recovery.
				killer := &postRecoveryKiller{target: tc.victim, n: 10}
				killer.kill = func() { cl.Kill(tc.victim, 5*time.Millisecond) }
				if tc.twice {
					cfg.Observer = killer
				}
				cl, err = New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				app.Configure(cl)

				t0 := time.Now()
				stats, runErr := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, RecoverOptions{
					MaxRestarts:     4,
					CheckpointEvery: 1,
					Replicate:       true,
					Seed:            seed,
				})
				elapsed := time.Since(t0)
				if nw.Counters().Crashes == 0 {
					t.Fatalf("crash schedule fired no kills (err: %v)", runErr)
				}

				if !tc.twice {
					var pd *node.PeerDownError
					if !errors.As(runErr, &pd) || pd.Node != 0 {
						t.Fatalf("want a *node.PeerDownError naming node 0, got %T: %v", runErr, runErr)
					}
					if elapsed > 10*time.Second {
						t.Errorf("abort took %v", elapsed)
					}
					return
				}
				if runErr != nil {
					t.Fatalf("supervised run: %v", runErr)
				}
				if !killer.fired.Load() {
					t.Fatal("the kill after the rejoin never fired")
				}
				if stats.Restarts != 2 {
					t.Errorf("restarts = %d, want 2", stats.Restarts)
				}
				if err := app.Verify(cl); err != nil {
					t.Fatalf("failed verification after recovery: %v", err)
				}
				compareToReference(t, "jacobi", prot, cl)
			})
		}
	}
}
