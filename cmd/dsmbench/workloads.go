package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"lrcdsm/internal/check"
	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/serve"
	"lrcdsm/internal/serve/hist"
	"lrcdsm/internal/serve/loadgen"
)

// iterResult is one iteration of a workload.
type iterResult struct {
	wall  time.Duration // the timed region
	ops   int64         // work units attempted
	ok    bool          // the iteration's output matched the oracle
	stats *live.Stats   // live workloads: the cluster's counters
	lat   []hist.Bucket // serve workloads: per-op latency histogram
	sim   *simPass      // sim-sweep: the pass's simulated totals
}

// runner is a workload after set-up: it runs one iteration under LH or
// LI (sim-sweep: the full grid or its LI cells). With a tracer the
// iteration records spans under parent.
type runner interface {
	run(p core.Protocol, tr *tracer, parent int32) iterResult
}

type workload struct {
	name, why string
	// setup is everything before the first timed iteration: the inputs,
	// the oracle (a 1-node reference run) and a warm-up iteration per
	// protocol.
	setup func(seed int64) (runner, error)
}

// Cluster sizes, client counts and batch sizes are fixed, not derived
// from the host: the numbers must mean the same thing on every box, and
// they are sized so a 2-core sandbox is not oversubscribed.
var workloads = []workload{
	{
		name: "cholesky-tcp",
		why:  "fine-grained locks, ~15k small messages per run through wire + loopback TCP: per-message software overhead bounds it, so codec and transport work must show here",
		setup: func(int64) (runner, error) {
			return newAppRunner(appRunner{app: "cholesky", scale: harness.ScaleBench, nodes: 2, net: netTCP})
		},
	},
	{
		name: "jacobi-inproc",
		why:  "coarse-grained: 40 barriers and ~100 messages over 13M shared accesses, so time is the access fast path, twins and diffs; a messaging change must leave it flat",
		setup: func(int64) (runner, error) {
			return newAppRunner(appRunner{app: "jacobi", scale: harness.ScalePaper, nodes: 2, net: netInproc})
		},
	},
	{
		name: "jacobi-ckpt",
		why:  "same jacobi on 3 nodes under the supervisor with a checkpoint at every barrier: the only workload where the checkpoint codec, stores and the replicated manager log do the work",
		setup: func(int64) (runner, error) {
			return newAppRunner(appRunner{app: "jacobi", scale: harness.ScalePaper, nodes: 3, net: netInprocSupervised})
		},
	},
	{
		name: "serve-any-update",
		why:  "KV store, route=any, 50% puts, uniform keys: every shard is written from both nodes, so each batch pays a lock hand-off plus a diff or invalidation - the remote path as a client sees it",
		setup: func(seed int64) (runner, error) {
			return newServeRunner("any", loadgen.Mix{Name: "update-uniform", ReadFrac: 0.5, Dist: "uniform"}, 50_000, seed)
		},
	},
	{
		name: "serve-affinity-read",
		why:  "same store, route=affinity, 95% gets, zipfian keys: ops stay on the shard's home and locks re-acquire locally with almost no messages - the local fast path the remote-path work must not tax",
		setup: func(seed int64) (runner, error) {
			return newServeRunner("affinity", loadgen.Mix{Name: "read-zipf", ReadFrac: 0.95, Dist: "zipfian", Theta: 0.99}, 200_000, seed)
		},
	},
	{
		name:  "sim-sweep",
		why:   "the paper reproduction itself: 4 apps x 5 protocols on the simulator (sim, core, network, page, vc; nothing under live), flat under live-runtime changes; simulated statistics repeat exactly",
		setup: func(int64) (runner, error) { return newSimRunner() },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// warmUp runs one checked, untimed iteration per protocol, so that set-up
// ends with caches, pools and the allocator in their steady state.
func warmUp(name string, r runner) error {
	for _, p := range []core.Protocol{core.LH, core.LI} {
		if it := r.run(p, nil, 0); !it.ok {
			return fmt.Errorf("%s: %v warm-up iteration failed its check", name, p)
		}
	}
	return nil
}

// ---- the four paper apps on the live runtime ----

type netKind int

const (
	netInproc netKind = iota
	netTCP
	netInprocSupervised // RunSupervised, checkpoint at every barrier
)

type appRunner struct {
	app   string
	scale harness.Scale
	nodes int
	net   netKind

	ref    *live.Cluster // 1-node reference run: the oracle
	refOps int64         // its shared accesses: the iteration's work units
}

// runApp builds a fresh cluster (clusters run once), runs the app on it
// and returns the cluster, the app instance and the timed Run call.
func (r *appRunner) runApp(cfg live.Config, tr *tracer, parent int32) (*live.Cluster, harness.App, *live.Stats, time.Duration, error) {
	app, err := harness.NewApp(r.app, r.scale)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	var nw transport.Network
	supervised := false
	if cfg.Nodes > 1 {
		switch r.net {
		case netTCP:
			if nw, err = transport.NewTCPLoopbackNet(cfg.Nodes, transport.TCPOptions{}); err != nil {
				return nil, nil, nil, 0, err
			}
		case netInprocSupervised:
			nw = transport.NewInprocNet(cfg.Nodes)
			supervised = true
		}
	}
	if nw != nil {
		cfg.Net = nw
		defer nw.Close()
	}
	cl, err := live.New(cfg)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	app.Configure(cl)
	worker := func(w core.Worker) { traceWorker(tr, parent, w, app.Worker) }
	var stats *live.Stats
	t0 := time.Now()
	if supervised {
		stores := make([]ckpt.Store, cfg.Nodes)
		for i := range stores {
			stores[i] = ckpt.NewMemStore()
		}
		stats, err = cl.RunSupervised(worker, live.RecoverOptions{
			MaxRestarts: 1, CheckpointEvery: 1, Replicate: true, Stores: stores,
		})
	} else {
		stats, err = cl.Run(worker)
	}
	return cl, app, stats, time.Since(t0), err
}

func newAppRunner(r appRunner) (*appRunner, error) {
	ref, app, stats, _, err := r.runApp(live.Config{Nodes: 1, Protocol: core.LH}, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s reference run: %w", r.app, err)
	}
	if err := app.Verify(ref); err != nil {
		return nil, fmt.Errorf("%s reference run: %w", r.app, err)
	}
	if _, ok := app.(harness.ResultApp); !ok {
		return nil, fmt.Errorf("%s declares no result regions to compare", r.app)
	}
	r.ref, r.refOps = ref, stats.Total.SharedReads+stats.Total.SharedWrites
	return &r, warmUp(r.app, &r)
}

func (r *appRunner) run(p core.Protocol, tr *tracer, parent int32) iterResult {
	cl, app, stats, wall, err := r.runApp(live.Config{Nodes: r.nodes, Protocol: p}, tr, parent)
	it := iterResult{wall: wall, ops: r.refOps, stats: stats}
	if err != nil {
		// A failed run is a failed iteration, not a failed benchmark: it
		// is counted and reported.
		fmt.Fprintf(os.Stderr, "dsmbench: %s/%v: %v\n", r.app, p, err)
		return it
	}
	if err := app.Verify(cl); err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: %s/%v: %v\n", r.app, p, err)
		return it
	}
	vs := check.CompareRegions(cl, r.ref, app.(harness.ResultApp).ResultRegions())
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "dsmbench: %s/%v: %s\n", r.app, p, v.String())
	}
	it.ok = len(vs) == 0
	return it
}

// ---- the KV front end ----

const (
	serveKeys    = 1 << 15
	serveClients = 2
)

type serveRunner struct {
	scfg serve.Config
	lcfg loadgen.Config
	ref  []uint64 // every key's final value on the 1-node reference run
}

func newServeRunner(route string, mix loadgen.Mix, ops int64, seed int64) (*serveRunner, error) {
	r := &serveRunner{
		scfg: serve.Config{Keys: serveKeys, Workers: 1, Route: route},
		// Closed loop, one outstanding op per client. Partitioned keys
		// make every key's final value a function of the seed alone.
		lcfg: loadgen.Config{
			Clients: serveClients, Keys: serveKeys, Ops: ops, Seed: seed,
			Mix: mix, Partition: true, Verify: true,
		},
	}
	cl, st, res, _, err := r.runServe(live.Config{Nodes: 1, Protocol: core.LH}, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("serve reference run: %w", err)
	}
	if res.Violations != 0 {
		return nil, fmt.Errorf("serve reference run: %d read-your-writes violations", res.Violations)
	}
	r.ref = make([]uint64, serveKeys)
	for k := range r.ref {
		r.ref[k] = cl.PeekU64(st.KeyAddr(uint64(k)))
	}
	return r, warmUp("serve", r)
}

func (r *serveRunner) runServe(cfg live.Config, tr *tracer, parent int32) (*live.Cluster, *serve.Store, *loadgen.Result, *live.Stats, error) {
	// One P: with one executor per node the store gains nothing from a
	// second CPU on the 2-vCPU sandbox (same ops/s either way), while
	// cross-thread wake-ups there cost 20-35 us each and swing with the
	// host's load - the dominant noise in both serve workloads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cl, err := live.New(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	st, err := serve.NewStore(cl, r.scfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srv := serve.NewServer(st)
	type out struct {
		stats *live.Stats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		stats, err := cl.Run(srv.NodeWorker)
		done <- out{stats, err}
	}()

	var drivers []*tracedDriver
	var clients []span
	mk := func(int) (loadgen.Driver, error) {
		if tr == nil {
			return srv, nil
		}
		// loadgen builds every driver before it starts its clock, so the
		// client spans are closed together when Run returns.
		cs := tr.begin("client", parent)
		clients = append(clients, cs)
		d := &tracedDriver{d: srv, buf: spanBuf{t: tr, parent: cs.ID}}
		drivers = append(drivers, d)
		return d, nil
	}
	res, lerr := loadgen.Run(r.lcfg, mk)
	for i, d := range drivers {
		clients[i].End = tr.now()
		tr.record(clients[i])
		tr.record(d.buf.spans...)
	}
	srv.Shutdown()
	o := <-done
	if lerr != nil {
		return nil, nil, nil, nil, lerr
	}
	return cl, st, res, o.stats, o.err
}

func (r *serveRunner) run(p core.Protocol, tr *tracer, parent int32) iterResult {
	cl, st, res, stats, err := r.runServe(live.Config{Nodes: 2, Protocol: p}, tr, parent)
	it := iterResult{ops: r.lcfg.Ops, stats: stats}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: serve/%v: %v\n", p, err)
		return it
	}
	it.wall = time.Duration(res.ElapsedNs)
	it.ops = res.Ops
	it.lat = res.Latency.Bkts
	bad := res.Violations
	for k, want := range r.ref {
		if cl.PeekU64(st.KeyAddr(uint64(k))) != want {
			bad++
		}
	}
	if bad != 0 {
		fmt.Fprintf(os.Stderr, "dsmbench: serve/%v: %d violations (read-your-writes + final image vs 1-node reference)\n", p, bad)
	}
	it.ok = bad == 0
	return it
}

// ---- the simulator ----

// simProcs thins the paper's processor axis {1,2,4,8,16}. Cholesky stops
// at 4: its lazy-protocol cells cost 1.2 s (8 procs) and 2.3 s (16 procs)
// of host time each, which would leave a run three iterations.
func simProcs(app string) []int {
	if app == "cholesky" {
		return []int{1, 2}
	}
	return []int{1, 4}
}

// simGrid is the Figures 7-18 grid at bench scale on the 100 Mbit ATM;
// liOnly keeps the LI row of each figure.
func simGrid(liOnly bool) []harness.Spec {
	var specs []harness.Spec
	for _, app := range harness.AppNames {
		for _, prot := range core.Protocols {
			if liOnly && prot != core.LI {
				continue
			}
			for _, procs := range simProcs(app) {
				spec := harness.DefaultSpec(app, harness.ScaleBench)
				spec.Protocol, spec.Procs = prot, procs
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// simPass is the outcome of one pass over a grid: exact simulated totals
// and host time per cell.
type simPass struct {
	digest      uint64 // FNV-1a over every cell's RunStats, in cell order
	accesses    int64
	msgs        int64
	dataBytes   int64
	pageFetches int64
	cycles      int64 // summed over processors
	lockWait    int64
	barrierWait int64
	missWait    int64
	cellMs      []float64
}

// runCells runs specs on a fresh two-worker harness.Runner and returns
// each cell's result and host time. harness.Run verifies every cell's
// result itself.
func runCells(specs []harness.Spec, tr *tracer, parent int32) ([]*harness.Result, []float64, time.Duration, error) {
	results := make([]*harness.Result, len(specs))
	cellMs := make([]float64, len(specs))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t0 := time.Now()
	err := harness.NewRunnerN(2).RunCells(len(specs), func(i int) error {
		var s span
		if tr != nil {
			s = tr.begin("cell", parent)
		}
		c0 := time.Now()
		res, err := harness.Run(specs[i])
		cellMs[i] = float64(time.Since(c0).Nanoseconds()) / 1e6
		if tr != nil {
			s.End = tr.now()
			tr.record(s)
		}
		results[i] = res
		return err
	})
	return results, cellMs, time.Since(t0), err
}

// totals folds cell results, in cell order, into a simPass.
func totals(results []*harness.Result, cellMs []float64) *simPass {
	pass := &simPass{cellMs: cellMs}
	h := fnv.New64a()
	for _, res := range results {
		s := res.Stats
		fmt.Fprintf(h, "%+v\n", *s)
		pass.accesses += s.SharedReads + s.SharedWrites
		pass.msgs += s.Msgs
		pass.dataBytes += s.DataBytes
		pass.pageFetches += s.PageFetches
		for _, pp := range s.PerProc {
			pass.cycles += int64(pp.Cycles)
			pass.lockWait += int64(pp.LockWait)
			pass.barrierWait += int64(pp.BarrierWait)
			pass.missWait += int64(pp.MissWait)
		}
	}
	pass.digest = h.Sum64()
	return pass
}

// simRunner's LH iteration is the full grid, its LI iteration the LI
// cells. harness.Run verifies every cell's result; on top of that every
// timed pass must reproduce the statistics digest of the reference pass
// made in set-up, which is also the warm-up (the LI cells are a subset).
type simRunner struct {
	ref map[bool]*simPass // by liOnly
}

func newSimRunner() (*simRunner, error) {
	results, _, _, err := runCells(simGrid(false), nil, 0)
	if err != nil {
		return nil, fmt.Errorf("sim reference pass: %w", err)
	}
	var li []*harness.Result
	for _, res := range results {
		if res.Spec.Protocol == core.LI {
			li = append(li, res)
		}
	}
	return &simRunner{ref: map[bool]*simPass{false: totals(results, nil), true: totals(li, nil)}}, nil
}

func (r *simRunner) run(p core.Protocol, tr *tracer, parent int32) iterResult {
	liOnly := p == core.LI
	ref := r.ref[liOnly]
	results, cellMs, wall, err := runCells(simGrid(liOnly), tr, parent)
	it := iterResult{wall: wall, ops: ref.accesses}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: sim-sweep: %v\n", err)
		return it
	}
	it.sim = totals(results, cellMs)
	it.ok = it.sim.digest == ref.digest
	if !it.ok {
		fmt.Fprintf(os.Stderr, "dsmbench: sim-sweep: statistics digest %016x, reference %016x\n", it.sim.digest, ref.digest)
	}
	return it
}
