package serve_test

import (
	"os"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/consensus"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/serve"
	"lrcdsm/internal/serve/loadgen"
)

// TestEnduranceServe is the serving half of the long-haul soak: a
// durable 4-node serving cluster absorbs repeated coordinator kills in
// the middle of an open-loop load, and every acknowledged write must
// still be present — byte-identical to a fault-free 1-node reference —
// while every durable consensus slot stays one state image in size.
// Opt-in via DSM_ENDURANCE=1, like TestEndurance in internal/live;
// `make endurance` runs both.
func TestEnduranceServe(t *testing.T) {
	if os.Getenv("DSM_ENDURANCE") == "" {
		t.Skip("set DSM_ENDURANCE=1 to run the long-haul soak")
	}
	// maxSlot bounds the sampled durable slot of a 4-node cluster, in
	// bytes, as enduranceMaxSlot does in TestEndurance: the slot holds
	// one state image.
	const maxSlot = 28 + 4 + (4 + 4*4) + 4 + (4 + 9*4 + 8) + 4
	scfg := testServeCfg()
	scfg.Durable = true
	lcfg := testLoadCfg(loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"})
	lcfg.Ops = 1200
	lcfg.Clients = 4

	nodes := 4
	stables := make([]*consensus.Stable, nodes)
	for i := range stables {
		stables[i] = consensus.NewStable()
	}
	cl, err := live.New(live.Config{
		Nodes: nodes, Protocol: core.LH, RPCTimeout: 60 * time.Second,
		Net: transport.NewInprocNet(nodes),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := serve.NewStore(cl, scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(st)

	type out struct {
		stats *live.Stats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		// Kill the coordinator three times while the load is in flight,
		// each at its 25th release (of ~120 in a fault-free run) since the
		// previous kill's rejoin.
		kill := live.Crash{Node: 0, At: live.AtRelease, N: 25, RestartAfter: 5 * time.Millisecond}
		stats, rerr := cl.RunSupervised(srv.NodeWorker, live.RecoverOptions{
			MaxRestarts: 4, CheckpointEvery: 1, Replicate: true, Seed: 7,
			Stables: stables,
			Crashes: []live.Crash{kill, kill, kill},
		})
		done <- out{stats, rerr}
	}()

	// Sample the replicas' durable slot sizes throughout.
	stopSample := make(chan struct{})
	sampled := make(chan int, 1)
	go func() {
		largest := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				for _, s := range stables {
					largest = max(largest, s.Size())
				}
			case <-stopSample:
				sampled <- largest
				return
			}
		}
	}()

	res, lerr := loadgen.Run(lcfg, func(int) (loadgen.Driver, error) { return srv, nil })
	close(stopSample)
	sampledSlot := <-sampled
	srv.Shutdown()
	o := <-done
	if lerr != nil {
		t.Fatalf("load: %v", lerr)
	}
	if o.err != nil {
		t.Fatalf("cluster: %v", o.err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d read-your-writes violations under kills", res.Violations)
	}
	if o.stats.Restarts != 3 {
		t.Fatalf("%d restarts, want 3 (one per scheduled coordinator kill)", o.stats.Restarts)
	}
	if sampledSlot > maxSlot {
		t.Errorf("a durable consensus slot reached %d bytes, bound is %d", sampledSlot, maxSlot)
	}
	if o.stats.Total.CheckpointsTaken == 0 {
		t.Error("durable run took no checkpoints")
	}
	for i, s := range stables {
		if s.Version() == 0 {
			t.Errorf("replica %d never held a leader's slot", i)
		}
	}

	ref := runServe(t, 1, nil, testServeCfg(), lcfg, nil)
	gotRun := &serveRun{cl: cl, res: res, stats: o.stats}
	compareKeys(t, scfg, gotRun, ref, lcfg.Keys)
	t.Logf("served %d ops across %d coordinator kills (%d checkpoints, %d commits, max slot %d B)",
		res.Ops, o.stats.Restarts, o.stats.Total.CheckpointsTaken, o.stats.Total.ConsensusCommits, sampledSlot)
}
