package live

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/live/wire"
	"lrcdsm/internal/page"
)

// postRecoveryKiller kills a node a few frames after the cluster has
// completed a rejoin: it arms on the first KResume frame (the restarted
// node asking to re-enter the run) and fires once the target has sent n
// more frames of its own. Observer-driven, so the kill is guaranteed to
// land after the restart budget has been spent — unlike an op-count
// schedule, it cannot race the rollback and take out the quorum itself.
type postRecoveryKiller struct {
	kill   func()
	target int
	n      int64
	armed  atomic.Bool
	seen   atomic.Int64
	fired  atomic.Bool
}

func (k *postRecoveryKiller) MsgSent(from, to int, kind wire.Kind, bytes int) {
	if kind == wire.KResume {
		k.armed.Store(true)
		return
	}
	if !k.armed.Load() || from != k.target {
		return
	}
	if k.seen.Add(1) >= k.n && k.fired.CompareAndSwap(false, true) {
		k.kill()
	}
}

func (k *postRecoveryKiller) PageFault(int, page.ID)               {}
func (k *postRecoveryKiller) IntervalClosed(int, int32, []page.ID) {}
func (k *postRecoveryKiller) DiffApplied(int, page.ID, int, int32) {}
func (k *postRecoveryKiller) Invalidated(int, page.ID)             {}
func (k *postRecoveryKiller) BarrierDeparted(int, int64)           {}

// TestRestartBudgetExhaustedUnderQuorum is the degradation claim for
// the replicated control plane: once the restart budget is spent, the
// next kill must still terminate the run with the structured
// PeerDownError abort — promptly, whichever replica happens to be
// judging at that point. The rows vary who dies and when: a follower
// after the coordinator was revived (so an elected successor judges the
// second death), the coordinator last (so the abort races a fresh
// election — the "half-elected leader" window), and the coordinator
// twice. A hang here would mean an exhausted cluster waits forever on
// a node that can no longer be restarted.
func TestRestartBudgetExhaustedUnderQuorum(t *testing.T) {
	cases := []struct {
		name    string
		crashes []chaos.Crash
		second  int // postRecoveryKiller target: the kill after the rejoin
		victim  int // node the final abort must name
	}{
		{
			name: "coordinator-then-follower",
			crashes: []chaos.Crash{
				{Node: 0, AtOp: 30, Local: true, RestartAfter: 5 * time.Millisecond},
			},
			second: 1,
			victim: 1,
		},
		{
			name: "follower-then-coordinator",
			crashes: []chaos.Crash{
				{Node: 1, AtOp: 30, Local: true, RestartAfter: 5 * time.Millisecond},
			},
			second: 0,
			victim: 0,
		},
		{
			name: "coordinator-twice",
			crashes: []chaos.Crash{
				{Node: 0, AtOp: 30, Local: true, RestartAfter: 5 * time.Millisecond},
			},
			second: 0,
			victim: 0,
		},
	}
	for i, tc := range cases {
		tc, seed := tc, int64(21+i)
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			app, err := harness.NewApp("jacobi", harness.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			var cl *Cluster
			fcfg := chaos.Config{Seed: seed, Crashes: tc.crashes}
			fcfg.OnCrash = func(n int, d time.Duration) { cl.Kill(n, d) }
			nw := chaos.WrapNet(transport.NewInprocNet(4), fcfg)
			cfg := failoverConfig(4, core.LH)
			cfg.Net = nw
			// The second kill is keyed on the rejoin, not on a frame count:
			// an op-count schedule races the rollback and can land inside the
			// first recovery, killing a node the abort then fails to name.
			killer := &postRecoveryKiller{target: tc.second, n: 10}
			killer.kill = func() { cl.Kill(tc.second, 0) }
			cfg.Observer = killer
			cl, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			app.Configure(cl)

			t0 := time.Now()
			_, runErr := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, RecoverOptions{
				MaxRestarts:     1,
				CheckpointEvery: 1,
				Replicate:       true,
				Seed:            seed,
			})
			elapsed := time.Since(t0)

			kills := nw.Counters().Crashes
			if killer.fired.Load() {
				kills++
			}
			if kills < 2 {
				t.Fatalf("only %d kills fired — the schedule exercised nothing (err: %v)", kills, runErr)
			}
			if runErr == nil {
				t.Fatal("second kill with an exhausted restart budget reported success")
			}
			var pd *node.PeerDownError
			if !errors.As(runErr, &pd) {
				t.Fatalf("want *node.PeerDownError, got %T: %v", runErr, runErr)
			}
			if pd.Node != tc.victim {
				t.Errorf("abort names node %d, want %d (the unrestartable victim)", pd.Node, tc.victim)
			}
			if elapsed > 45*time.Second {
				t.Errorf("abort took %v — the exhausted quorum hung instead of degrading", elapsed)
			}
			t.Logf("degraded in %v: %v", elapsed, runErr)
		})
	}
}
