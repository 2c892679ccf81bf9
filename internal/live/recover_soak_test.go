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
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
)

// crashSchedule places two mid-run kills of node 2 (never the manager)
// per workload, calibrated to each app's cross-node message volume so
// both fire while real work is in flight. (The op counter only sees
// frames that traverse a transport — the manager node's RPCs to itself
// bypass it — so lock-heavy apps get low thresholds.)
//
// tsp is the odd one out: its satellite workers finish after a handful
// of RPCs while node 0 grinds on, so a cluster-wide threshold can land
// after the victim's worker already returned — a kill the supervisor
// rightly ignores. Counting the victim's own sends (Local) pins the
// first kill inside its worker and the second inside rejoin/replay.
//
// water's whole run is about 2 000 frames, too few for a second
// threshold to land reliably, so its second kill is keyed on the rejoin
// instead: the returned postRecoveryKiller (nil for the other apps)
// fires once the restarted victim has sent a few frames of its own.
func crashSchedule(app string) ([]chaos.Crash, *postRecoveryKiller) {
	if app == "tsp" {
		return []chaos.Crash{
			{Node: 2, AtOp: 1, Local: true, RestartAfter: 5 * time.Millisecond},
			{Node: 2, AtOp: 6, Local: true, RestartAfter: 5 * time.Millisecond},
		}, nil
	}
	if app == "water" {
		return []chaos.Crash{
			{Node: 2, AtOp: 1000, RestartAfter: 5 * time.Millisecond},
		}, &postRecoveryKiller{target: 2, n: 10}
	}
	ops := map[string][2]int64{
		"jacobi":   {25, 50},
		"cholesky": {1000, 4000},
	}[app]
	return []chaos.Crash{
		{Node: 2, AtOp: ops[0], RestartAfter: 5 * time.Millisecond},
		{Node: 2, AtOp: ops[1], RestartAfter: 5 * time.Millisecond},
	}, nil
}

// runAppSupervised executes one workload under a crash schedule — and,
// if rekill is not nil, a kill keyed on the first rejoin — on a
// supervised cluster and returns the finished cluster and stats.
func runAppSupervised(t *testing.T, name string, prot core.Protocol, nodes int,
	inner transport.Network, fcfg chaos.Config, opts RecoverOptions, rekill *postRecoveryKiller) (*Cluster, *Stats, *chaos.Net) {
	t.Helper()
	app, err := harness.NewApp(name, harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var cl *Cluster
	fcfg.OnCrash = func(n int, d time.Duration) { cl.Kill(n, d) }
	nw := chaos.WrapNet(inner, fcfg)
	cfg := chaosConfig(nodes, prot, nil)
	cfg.Net = nw
	if rekill != nil {
		rekill.kill = func() { cl.Kill(rekill.target, 5*time.Millisecond) }
		cfg.Observer = rekill
	}
	cl, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(cl)
	stats, err := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, opts)
	if err != nil {
		t.Fatalf("%s/%v/%dn supervised run: %v (faults %+v)", name, prot, nodes, err, nw.Counters())
	}
	if err := app.Verify(cl); err != nil {
		t.Fatalf("%s/%v/%dn failed verification after recovery: %v", name, prot, nodes, err)
	}
	return cl, stats, nw
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
				crashes, rekill := crashSchedule(name)
				fcfg := chaos.Config{Seed: 1, Crashes: crashes}
				opts := RecoverOptions{
					MaxRestarts:     4,
					CheckpointEvery: 1,
					Replicate:       true,
					Seed:            1,
				}
				got, stats, nw := runAppSupervised(t, name, prot, 4, transport.NewInprocNet(4), fcfg, opts, rekill)
				if c := nw.Counters().Crashes; c == 0 {
					t.Fatal("crash schedule fired no kills — the soak exercised nothing")
				}
				if rekill != nil && !rekill.fired.Load() {
					t.Error("the second kill, keyed on the rejoin, never fired")
				}
				if stats.Restarts == 0 {
					t.Error("kills fired but the supervisor recorded no restarts")
				}
				if stats.RecoveryNs == 0 && stats.Restarts > 0 {
					t.Error("restarts recorded but no recovery time")
				}
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
			crashes, rekill := crashSchedule(tc.app)
			fcfg := chaos.Config{
				Seed:    2,
				DropP:   0.01,
				DupP:    0.02,
				Crashes: crashes,
			}
			opts := RecoverOptions{
				MaxRestarts:     4,
				CheckpointEvery: 1,
				Replicate:       true,
				Seed:            2,
			}
			got, stats, nw := runAppSupervised(t, tc.app, tc.prot, 4, inner, fcfg, opts, rekill)
			if nw.Counters().Crashes == 0 {
				t.Fatal("crash schedule fired no kills over TCP")
			}
			if stats.Restarts == 0 {
				t.Error("kills fired but the supervisor recorded no restarts")
			}
			compareToReference(t, tc.app, tc.prot, got)
		})
	}
}

// TestRecoveryLostStore kills a node AND discards its checkpoint store,
// forcing the rejoin to stream the stable snapshot back from the
// manager's replica chunk by chunk.
func TestRecoveryLostStore(t *testing.T) {
	fcfg := chaos.Config{Seed: 3, Crashes: []chaos.Crash{
		{Node: 2, AtOp: 50, RestartAfter: 5 * time.Millisecond},
	}}
	opts := RecoverOptions{
		MaxRestarts:      4,
		CheckpointEvery:  1,
		Replicate:        true,
		Seed:             3,
		LoseStoreOnCrash: true,
	}
	got, stats, nw := runAppSupervised(t, "jacobi", core.LH, 4, transport.NewInprocNet(4), fcfg, opts, nil)
	if nw.Counters().Crashes == 0 {
		t.Fatal("crash schedule fired no kills")
	}
	if stats.Restarts == 0 {
		t.Error("kill fired but no restart recorded")
	}
	compareToReference(t, "jacobi", core.LH, got)
}

// TestRecoveryDirStore runs one crash-recovery cycle with on-disk
// checkpoint stores, proving the serialized snapshot round-trips through
// a real filesystem during recovery.
func TestRecoveryDirStore(t *testing.T) {
	stores := make([]ckpt.Store, 4)
	for i := range stores {
		s, err := ckpt.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	fcfg := chaos.Config{Seed: 4, Crashes: []chaos.Crash{
		{Node: 1, AtOp: 40, RestartAfter: 0},
	}}
	opts := RecoverOptions{
		MaxRestarts:     2,
		CheckpointEvery: 1,
		Stores:          stores,
		Seed:            4,
	}
	got, stats, _ := runAppSupervised(t, "jacobi", core.LI, 4, transport.NewInprocNet(4), fcfg, opts, nil)
	if stats.Restarts == 0 {
		t.Error("kill fired but no restart recorded")
	}
	compareToReference(t, "jacobi", core.LI, got)
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
			fcfg := chaos.Config{Seed: 8, Crashes: []chaos.Crash{
				{Node: 1, AtOp: 1, Local: true, RestartAfter: 5 * time.Millisecond},
				{Node: 1, AtOp: 6, Local: true, RestartAfter: 5 * time.Millisecond},
			}}
			opts := RecoverOptions{
				MaxRestarts:     4,
				CheckpointEvery: 1,
				Replicate:       true,
				Seed:            8,
			}
			got, stats, nw := runAppSupervised(t, "tsp", prot, 4, transport.NewInprocNet(4), fcfg, opts, nil)
			if nw.Counters().Crashes == 0 {
				t.Fatal("crash schedule fired no kills")
			}
			if stats.Restarts == 0 {
				t.Error("kills fired but the supervisor recorded no restarts")
			}
			compareToReference(t, "tsp", prot, got)
		})
	}
}

// TestPartitionHealSupervised runs a supervised cluster through a
// transient partition window that heals on its own: retransmission must
// ride it out without the supervisor burning a restart.
func TestPartitionHealSupervised(t *testing.T) {
	fcfg := chaos.Config{
		Seed: 5,
		Partitions: []chaos.Partition{
			{A: 0, B: 3, From: 50 * time.Millisecond, Dur: 200 * time.Millisecond},
		},
	}
	opts := RecoverOptions{MaxRestarts: 2, CheckpointEvery: 1, Seed: 5}
	got, stats, _ := runAppSupervised(t, "water", core.LH, 4, transport.NewInprocNet(4), fcfg, opts, nil)
	if stats.Restarts != 0 {
		t.Errorf("transient partition burned %d restarts; retries should have ridden it out", stats.Restarts)
	}
	compareToReference(t, "water", core.LH, got)
}

// TestRestartBudgetExhausted is the degradation claim: with the restart
// budget set to zero, a killed node must produce the same structured
// PeerDownError abort a recovery-free cluster reports — quickly, via
// heartbeat detection, not by riding out the RPC deadline.
func TestRestartBudgetExhausted(t *testing.T) {
	app, err := harness.NewApp("jacobi", harness.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var cl *Cluster
	fcfg := chaos.Config{
		Seed:    6,
		Crashes: []chaos.Crash{{Node: 2, AtOp: 25}},
		OnCrash: func(n int, d time.Duration) { cl.Kill(n, d) },
	}
	nw := chaos.WrapNet(transport.NewInprocNet(4), fcfg)
	cfg := chaosConfig(4, core.LH, nil)
	cfg.Net = nw
	cfg.RPCTimeout = 30 * time.Second
	cfg.HeartbeatInterval = 25 * time.Millisecond
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	cl, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app.Configure(cl)

	t0 := time.Now()
	_, runErr := cl.RunSupervised(func(w core.Worker) { app.Worker(w) }, RecoverOptions{MaxRestarts: 0})
	elapsed := time.Since(t0)

	if runErr == nil {
		t.Fatal("killed node with zero restart budget reported success")
	}
	var pd *node.PeerDownError
	if !errors.As(runErr, &pd) {
		t.Fatalf("want *node.PeerDownError, got %T: %v", runErr, runErr)
	}
	if pd.Node != 2 {
		t.Errorf("suspect node = %d, want 2 (the killed node)", pd.Node)
	}
	if elapsed > 10*time.Second {
		t.Errorf("abort took %v — heartbeat detection did not convert the kill", elapsed)
	}
	t.Logf("degraded to structured abort in %v: %v", elapsed, runErr)
}
