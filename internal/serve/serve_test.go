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

// serveRun is one completed cluster + load: the finished cluster for
// Peek-based comparison, the load result, and the run stats.
type serveRun struct {
	cl    *live.Cluster
	res   *loadgen.Result
	stats *live.Stats
}

// runServe brings up a serving cluster, drives it with the load, shuts
// down, and returns everything needed for verification. A nil nw selects
// the in-process network; drv wraps the in-proc server into the
// per-client driver (nil = in-proc direct).
func runServe(t *testing.T, nodes int, nw transport.Network, scfg serve.Config,
	lcfg loadgen.Config, mkDrv func(*serve.Server) func(int) (loadgen.Driver, error)) *serveRun {
	t.Helper()
	cl, err := live.New(live.Config{
		Nodes:      nodes,
		Protocol:   core.LH,
		Net:        nw,
		RPCTimeout: 60 * time.Second,
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
		stats, rerr := cl.Run(srv.NodeWorker)
		done <- out{stats, rerr}
	}()
	mk := func(int) (loadgen.Driver, error) { return srv, nil }
	if mkDrv != nil {
		mk = mkDrv(srv)
	}
	res, lerr := loadgen.Run(lcfg, mk)
	srv.Shutdown()
	o := <-done
	if lerr != nil {
		t.Fatalf("%d nodes: load: %v", nodes, lerr)
	}
	if o.err != nil {
		t.Fatalf("%d nodes: cluster run: %v", nodes, o.err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d nodes: %d read-your-writes violations", nodes, res.Violations)
	}
	return &serveRun{cl: cl, res: res, stats: o.stats}
}

// compareKeys checks every key's final value against a 1-node reference
// run of the same deterministic load.
func compareKeys(t *testing.T, scfg serve.Config, got, ref *serveRun, keys uint64) {
	t.Helper()
	// Both runs share the store layout (same config on the same
	// allocation order), so the same KeyAddr applies to both.
	st, err := serve.NewStore(probeMem{}, scfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for k := uint64(0); k < keys; k++ {
		a := st.KeyAddr(k)
		if g, r := got.cl.PeekU64(a), ref.cl.PeekU64(a); g != r {
			if bad < 5 {
				t.Errorf("key %d: got %#x, 1-node reference %#x", k, g, r)
			}
			bad++
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more mismatched keys", bad-5)
	}
}

// probeMem is a do-nothing core.Mem used to rebuild a Store's address
// arithmetic without a cluster (the layout is deterministic: one page
// allocation from address 0 upward, mirroring the live cluster's
// allocator order).
type probeMem struct{}

func (probeMem) Alloc(n int) core.Addr      { return 0 }
func (probeMem) AllocPage(n int) core.Addr  { return 0 }
func (probeMem) InitF64(core.Addr, float64) {}
func (probeMem) InitI64(core.Addr, int64)   {}
func (probeMem) InitU64(core.Addr, uint64)  {}
func (probeMem) NewLock() int               { return 0 }
func (probeMem) NewLocks(n int) int         { return 0 }
func (probeMem) NewBarrier() int            { return 0 }
func (probeMem) Procs() int                 { return 1 }

func testServeCfg() serve.Config {
	return serve.Config{Keys: 1 << 10, KeysPerPage: 64, Shards: 16, Workers: 2, QueueDepth: 128}
}

func testLoadCfg(mix loadgen.Mix) loadgen.Config {
	return loadgen.Config{
		Clients: 8, Workers: 4, Keys: 1 << 10, Ops: 4000, Seed: 77,
		Mix: mix, Partition: true, Verify: true,
	}
}

// TestServeInprocVsReference is the serving smoke: a multi-node in-proc
// cluster under uniform and zipfian mixes, verified two ways — live
// read-your-writes per client, and every key's final value against a
// 1-node reference run of the same deterministic load.
func TestServeInprocVsReference(t *testing.T) {
	for _, mix := range []loadgen.Mix{
		{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"},
		{Name: "read-heavy-zipf", ReadFrac: 0.95, Dist: "zipfian", Theta: 0.99},
	} {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			t.Parallel()
			scfg, lcfg := testServeCfg(), testLoadCfg(mix)
			got := runServe(t, 2, nil, scfg, lcfg, nil)
			ref := runServe(t, 1, nil, scfg, lcfg, nil)
			compareKeys(t, scfg, got, ref, lcfg.Keys)
			if got.res.Ops != lcfg.Ops {
				t.Errorf("ran %d ops, want %d", got.res.Ops, lcfg.Ops)
			}
			// The verify sweep re-reads every written key through the same
			// server, so the serve counters see Ops + VerifiedKeys.
			if want := lcfg.Ops + got.res.VerifiedKeys; got.stats.Total.ServeGets+got.stats.Total.ServePuts != want {
				t.Errorf("serve counters %d gets + %d puts, want %d (ops + sweep)",
					got.stats.Total.ServeGets, got.stats.Total.ServePuts, want)
			}
			if got.stats.Total.ServePuts != got.res.Puts {
				t.Errorf("serve_puts = %d, load issued %d puts", got.stats.Total.ServePuts, got.res.Puts)
			}
			if got.res.Latency == nil || got.res.Latency.Count != lcfg.Ops {
				t.Errorf("latency histogram missing ops: %+v", got.res.Latency)
			}
		})
	}
}

// TestServeAnyRouting sends every operation to a round-robin node
// instead of the shard's affinity home, exercising lock forwarding and
// remote diff pulls, and still must match the reference.
func TestServeAnyRouting(t *testing.T) {
	scfg, lcfg := testServeCfg(), testLoadCfg(loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"})
	scfg.Route = "any"
	got := runServe(t, 3, nil, scfg, lcfg, nil)
	ref := runServe(t, 1, nil, scfg, lcfg, nil)
	compareKeys(t, scfg, got, ref, lcfg.Keys)
	if got.stats.Total.LockForwards == 0 && got.stats.Total.LockHandoffs == 0 {
		t.Error("any-routing exercised no lock forwarding or handoffs")
	}
}

// TestServeTCPTransport runs the cluster's nodes over real TCP loopback
// sockets (the transport under the DSM protocol, not the frontend).
func TestServeTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP sockets in -short")
	}
	nodes := 2
	nw, err := transport.NewTCPLoopbackNet(nodes, transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scfg, lcfg := testServeCfg(), testLoadCfg(loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"})
	lcfg.Ops = 2000
	got := runServe(t, nodes, nw, scfg, lcfg, nil)
	ref := runServe(t, 1, nil, scfg, lcfg, nil)
	compareKeys(t, scfg, got, ref, lcfg.Keys)
}

// TestServeFrontendTCP drives the cluster through the TCP frontend —
// one connection per client — and must match the in-proc reference.
func TestServeFrontendTCP(t *testing.T) {
	scfg, lcfg := testServeCfg(), testLoadCfg(loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"})
	lcfg.Ops = 2000
	var fe *serve.Frontend
	var clients []*serve.Client
	got := runServe(t, 2, nil, scfg, lcfg, func(srv *serve.Server) func(int) (loadgen.Driver, error) {
		var err error
		fe, err = serve.ServeTCP(srv, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return func(int) (loadgen.Driver, error) {
			cl, derr := serve.Dial(fe.Addr())
			if derr == nil {
				clients = append(clients, cl)
			}
			return cl, derr
		}
	})
	for _, cl := range clients {
		cl.Close()
	}
	fe.Close()
	ref := runServe(t, 1, nil, scfg, lcfg, nil)
	compareKeys(t, scfg, got, ref, lcfg.Keys)
}

// TestServeDurable runs the group-commit episode loop under the
// supervisor with no crash, checkpointing at every barrier and at every
// second one: every acknowledgment waits for a stable checkpoint, which
// the loop computes from the engine's own cadence, and the results
// still match the direct reference.
func TestServeDurable(t *testing.T) {
	for _, every := range []int64{1, 2} {
		t.Run(fmt.Sprintf("ckpt-every=%d", every), func(t *testing.T) {
			scfg := testServeCfg()
			scfg.Durable = true
			lcfg := testLoadCfg(loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"})
			lcfg.Ops = 600
			lcfg.Clients = 4

			cl, err := live.New(live.Config{
				Nodes: 2, Protocol: core.LH, RPCTimeout: 60 * time.Second,
				Net: transport.NewInprocNet(2),
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
					MaxRestarts: 2, CheckpointEvery: every, Replicate: true, Seed: 1,
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
				t.Fatalf("%d violations in durable mode", res.Violations)
			}
			if o.stats.Total.CheckpointsTaken == 0 {
				t.Error("durable run took no checkpoints")
			}
			ref := runServe(t, 1, nil, testServeCfg(), lcfg, nil)
			gotRun := &serveRun{cl: cl, res: res, stats: o.stats}
			compareKeys(t, scfg, gotRun, ref, lcfg.Keys)
		})
	}
}

// TestServeConfigValidation pins the config error paths.
func TestServeConfigValidation(t *testing.T) {
	cl, err := live.New(live.Config{Nodes: 1, Protocol: core.LH})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []serve.Config{
		{Keys: 1000},                    // not a power of two
		{Keys: 64, KeysPerPage: 3},      // page size not divisible
		{Keys: 64, KeysPerPage: 4096},   // < 8-byte slots
		{Keys: 64, Route: "everywhere"}, // unknown route
	} {
		if _, serr := serve.NewStore(cl, bad); serr == nil {
			t.Errorf("config %+v accepted, want error", bad)
		}
	}
	if _, serr := serve.NewStore(cl, serve.Config{}); serr != nil {
		t.Errorf("default config rejected: %v", serr)
	}
}
