package live

import (
	"fmt"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
)

// TestRecoveryTwoNodes runs jacobi on a supervised two-node cluster,
// where node 0 alone forms the manager's voting group. Killing node 1
// twice (the second time once it has rejoined) recovers through that
// one-voter group and must still match the fault-free 1-node reference
// byte for byte. Killing node 0 leaves no replica that could lead a
// rollback: the run must end promptly with the structured abort, a
// PeerDownError naming node 0.
func TestRecoveryTwoNodes(t *testing.T) {
	cases := []struct {
		name    string
		crashes []Crash
	}{
		{"follower-twice", []Crash{crashAt(1, AtRelease, 2), crashAt(1, AtRelease, 2)}},
		{"sole-voter", []Crash{crashAt(0, AtRelease, 2)}},
	}
	for i, tc := range cases {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			tc, prot, seed := tc, prot, int64(31+i)
			t.Run(fmt.Sprintf("%s/%v", tc.name, prot), func(t *testing.T) {
				t.Parallel()
				cfg := failoverConfig(2, prot)
				cfg.Net = transport.NewInprocNet(2)
				opts := RecoverOptions{
					MaxRestarts:     4,
					CheckpointEvery: 1,
					Replicate:       true,
					Seed:            seed,
					Crashes:         tc.crashes,
				}
				if tc.crashes[0].Node == 0 {
					if _, elapsed := runAppAborted(t, "jacobi", cfg, opts); elapsed > 10*time.Second {
						t.Errorf("abort took %v", elapsed)
					}
					return
				}
				got, _ := runAppSupervised(t, "jacobi", cfg, opts)
				compareToReference(t, "jacobi", prot, got)
			})
		}
	}
}
