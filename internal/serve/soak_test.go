package serve_test

import (
	"fmt"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/serve"
	"lrcdsm/internal/serve/loadgen"
)

// TestServeChaosSoak is the serving availability claim: a supervised
// durable cluster loses a serving node mid-load (killed and restarted
// by the supervisor's kill schedule) and no acknowledged write is
// lost — every client's read-your-writes history stays intact through
// the crash, and the final sweep re-reads every acked key. Group-commit
// acks make this possible: an operation is only acknowledged once a
// checkpoint at or after its episode is stable, so rollback can never
// undo an acked write. It runs checkpointing at every barrier and at
// every second one: acking against the wrong cadence loses writes.
func TestServeChaosSoak(t *testing.T) {
	for _, every := range []int64{1, 2} {
		t.Run(fmt.Sprintf("ckpt-every=%d", every), func(t *testing.T) {
			const nodes = 3
			scfg := serve.Config{
				Keys: 1 << 9, KeysPerPage: 64, Shards: 12,
				Durable: true, QueueDepth: 256,
			}
			lcfg := loadgen.Config{
				Clients: 6, Workers: 6, Keys: 1 << 9, Ops: 900, Seed: 1234,
				Mix:       loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"},
				Partition: true, Verify: true,
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
				stats, rerr := cl.RunSupervised(srv.NodeWorker, live.RecoverOptions{
					MaxRestarts: 3, CheckpointEvery: every, Replicate: true, Seed: 7,
					// Kill node 1 (never node 0, the manager) at its 40th release of
					// ~150 in this load, so real serving traffic is in flight.
					Crashes: []live.Crash{{Node: 1, At: live.AtRelease, N: 40, RestartAfter: 5 * time.Millisecond}},
				})
				done <- out{stats, rerr}
			}()
			res, lerr := loadgen.Run(lcfg, func(int) (loadgen.Driver, error) { return srv, nil })
			srv.Shutdown()
			o := <-done
			if lerr != nil {
				t.Fatalf("load: %v", lerr)
			}
			if o.err != nil {
				t.Fatalf("cluster: %v", o.err)
			}
			if res.Violations != 0 {
				t.Fatalf("%d acknowledged writes lost across the crash", res.Violations)
			}
			if o.stats.Restarts != 1 {
				t.Errorf("%d restarts, want 1 (the scheduled kill)", o.stats.Restarts)
			}
			if o.stats.Total.CheckpointsTaken == 0 {
				t.Error("durable soak took no checkpoints")
			}
			if res.Ops != lcfg.Ops {
				t.Errorf("ran %d ops, want %d", res.Ops, lcfg.Ops)
			}

			// The surviving image must equal a fault-free 1-node reference of
			// the same deterministic load.
			ref := runServe(t, 1, nil, serve.Config{
				Keys: scfg.Keys, KeysPerPage: scfg.KeysPerPage, Shards: scfg.Shards,
				QueueDepth: scfg.QueueDepth,
			}, lcfg, nil)
			compareKeys(t, scfg, &serveRun{cl: cl, res: res, stats: o.stats}, ref, lcfg.Keys)
		})
	}
}
