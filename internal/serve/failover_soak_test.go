package serve_test

import (
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/serve"
	"lrcdsm/internal/serve/loadgen"
)

// TestServeFailoverSoak is the control-plane availability claim: the
// victim is node 0 itself — manager, barrier root, bootstrap leader of
// the replicated manager quorum — killed while durable serving traffic
// is in flight. The surviving replicas elect a new leader, roll back to
// the stable checkpoint committed on the replicated log, and the
// group-commit ack rule keeps its promise across the failover: zero
// acknowledged writes lost, final image byte-equal to a fault-free
// 1-node reference.
func TestServeFailoverSoak(t *testing.T) {
	const nodes = 3
	scfg := serve.Config{
		Keys: 1 << 9, KeysPerPage: 64, Shards: 12,
		Durable: true, QueueDepth: 256,
	}
	lcfg := loadgen.Config{
		Clients: 6, Workers: 6, Keys: 1 << 9, Ops: 900, Seed: 4321,
		Mix:       loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"},
		Partition: true, Verify: true,
	}

	cl, err := live.New(live.Config{
		Nodes: nodes, Protocol: core.LH, RPCTimeout: 60 * time.Second,
		RetryBase: 10 * time.Millisecond, RetryMax: 100 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		Net:              transport.NewInprocNet(nodes),
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
			MaxRestarts: 3, CheckpointEvery: 1, Replicate: true, Seed: 9,
			// Kill node 0, the coordinator, at its 40th release of
			// ~150 in this load, so real serving traffic is in flight.
			Crashes: []live.Crash{{Node: 0, At: live.AtRelease, N: 40, RestartAfter: 5 * time.Millisecond}},
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
		t.Fatalf("%d acknowledged writes lost across the coordinator failover", res.Violations)
	}
	if o.stats.Restarts != 1 {
		t.Errorf("%d restarts, want 1 (the scheduled kill)", o.stats.Restarts)
	}
	if o.stats.Total.ConsensusElections == 0 {
		t.Error("coordinator died but no replica recorded an election")
	}
	if o.stats.Total.ConsensusCommits == 0 {
		t.Error("replicated manager recorded no committed commands")
	}
	t.Logf("failover: terms=%d elections=%d commits=%d redirects=%d restarts=%d",
		o.stats.Total.ConsensusTerms, o.stats.Total.ConsensusElections,
		o.stats.Total.ConsensusCommits, o.stats.Total.LeaderRedirects, o.stats.Restarts)

	ref := runServe(t, 1, nil, serve.Config{
		Keys: scfg.Keys, KeysPerPage: scfg.KeysPerPage, Shards: scfg.Shards,
		QueueDepth: scfg.QueueDepth,
	}, lcfg, nil)
	compareKeys(t, scfg, &serveRun{cl: cl, res: res, stats: o.stats}, ref, lcfg.Keys)
}
