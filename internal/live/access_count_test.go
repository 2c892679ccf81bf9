package live

import (
	"testing"
	"time"

	"lrcdsm/internal/apps/jacobi"
	"lrcdsm/internal/core"
	"lrcdsm/internal/live/chaos"
	"lrcdsm/internal/live/transport"
)

// jacobi makes exactly five shared accesses per interior grid point per
// sweep — four reads and a write — however the rows are split, which
// makes its access totals an oracle for the worker-private hit counters:
// nearly all of these accesses are lock-free hits, counted off to the
// side and folded into the node's stats only when the worker enters the
// engine.
func jacobiAccesses(p jacobi.Params) (reads, writes int64) {
	points := int64(p.Iters) * int64(p.N-2) * int64(p.N-2)
	return 4 * points, points
}

func TestAccessCountsAreExact(t *testing.T) {
	p := jacobi.Small()
	wantR, wantW := jacobiAccesses(p)
	for _, nodes := range []int{1, 2} {
		app := jacobi.New(p)
		c, err := New(Config{Nodes: nodes, Protocol: core.LH})
		if err != nil {
			t.Fatal(err)
		}
		app.Configure(c)
		st, err := c.Run(func(w core.Worker) { app.Worker(w) })
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(c); err != nil {
			t.Fatal(err)
		}
		if st.Total.SharedReads != wantR || st.Total.SharedWrites != wantW {
			t.Errorf("%d nodes: reads = %d, writes = %d; want %d and %d",
				nodes, st.Total.SharedReads, st.Total.SharedWrites, wantR, wantW)
		}
	}
}

// TestKilledIncarnationKeepsItsAccessCounts: a killed worker never
// reaches FinalFlush, yet what it did must still be in the run total —
// the supervisor folds the dead engine's stats in, and those already
// hold every hit up to the engine call the worker died in. The victim
// dies at its third release — one interval per sweep, closed on the
// way into the sweep's barrier — so its dead incarnation accounts for
// exactly three sweeps of its band, and the run as a whole for at least
// the fault-free count (the rolled-back work is done twice). The count
// must not move when half the frames are sent twice: the kill is keyed
// on the release, not on the frame count.
func TestKilledIncarnationKeepsItsAccessCounts(t *testing.T) {
	const nodes, victim, sweeps = 3, 2, 3
	for _, tc := range []struct {
		name string
		net  func() transport.Network
	}{
		{"fault-free", func() transport.Network { return transport.NewInprocNet(nodes) }},
		{"dup-0.5", func() transport.Network {
			return chaos.WrapNet(transport.NewInprocNet(nodes), chaos.Config{Seed: 1, DupP: 0.5})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := jacobi.Small()
			p.Iters = 6
			app := jacobi.New(p)
			cfg := failoverConfig(nodes, core.LH)
			cfg.Net = tc.net()
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			app.Configure(cl)
			st, err := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, RecoverOptions{
				MaxRestarts: 1,
				Crashes:     []Crash{{Node: victim, At: AtRelease, N: sweeps, RestartAfter: time.Millisecond}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Verify(cl); err != nil {
				t.Fatal(err)
			}
			if st.Restarts != 1 {
				t.Fatalf("restarts = %d; the scheduled kill did not fire", st.Restarts)
			}
			var liveR, liveW int64
			for _, s := range st.PerNode {
				liveR += s.SharedReads
				liveW += s.SharedWrites
			}
			killedR, killedW := st.Total.SharedReads-liveR, st.Total.SharedWrites-liveW
			interior := p.N - 2
			band := int64((victim+1)*interior/nodes - victim*interior/nodes)
			perSweepW := band * int64(interior)
			if killedW != sweeps*perSweepW || killedR != 4*sweeps*perSweepW {
				t.Errorf("dead incarnation: reads = %d, writes = %d; want %d and %d (%d sweeps of its band)",
					killedR, killedW, 4*sweeps*perSweepW, sweeps*perSweepW, sweeps)
			}
			if wantR, wantW := jacobiAccesses(p); st.Total.SharedReads < wantR || st.Total.SharedWrites < wantW {
				t.Errorf("run total: reads = %d, writes = %d; below the fault-free %d and %d",
					st.Total.SharedReads, st.Total.SharedWrites, wantR, wantW)
			}
		})
	}
}
