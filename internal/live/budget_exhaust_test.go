package live

import (
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live/transport"
)

// TestRestartBudgetExhaustedUnderQuorum is the degradation claim for
// the replicated control plane: once the restart budget is spent, the
// next kill must still terminate the run with the structured
// PeerDownError abort — promptly, whichever replica happens to be
// judging at that point. The rows vary who dies and when: a follower
// after the coordinator was revived (so an elected successor judges the
// second death), the coordinator last (so the abort races a fresh
// election — the "half-elected leader" window), and the coordinator
// twice. The second kill counts from the first victim's rejoin, so it
// cannot land inside the first recovery and take out the quorum there.
// A hang here would mean an exhausted cluster waits forever on a node
// that can no longer be restarted.
func TestRestartBudgetExhaustedUnderQuorum(t *testing.T) {
	cases := []struct {
		name          string
		first, second int
	}{
		{"coordinator-then-follower", 0, 1},
		{"follower-then-coordinator", 1, 0},
		{"coordinator-twice", 0, 0},
	}
	for i, tc := range cases {
		tc, seed := tc, int64(21+i)
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := failoverConfig(4, core.LH)
			cfg.Net = transport.NewInprocNet(4)
			pd, elapsed := runAppAborted(t, "jacobi", cfg, RecoverOptions{
				MaxRestarts:     1,
				CheckpointEvery: 1,
				Replicate:       true,
				Seed:            seed,
				Crashes: []Crash{
					crashAt(tc.first, AtRelease, 2),
					{Node: tc.second, At: AtRelease, N: 1},
				},
			})
			if elapsed > 45*time.Second {
				t.Errorf("abort took %v — the exhausted quorum hung instead of degrading", elapsed)
			}
			t.Logf("degraded in %v: %v", elapsed, pd)
		})
	}
}
