// Command dsmserve runs the DSM-as-a-service front end: a sharded
// get/put key-value API served by an N-node live LRC cluster, driven by
// the built-in open-loop load generator (in process or through the TCP
// frontend) and reporting throughput and latency quantiles.
//
// Usage:
//
//	dsmserve -nodes 4 -mix update-uniform -clients 32 -ops 200000 -json
//	dsmserve -nodes 2 -mix read-heavy-zipf -read-frac 0.95 -dist zipfian -rate 50000
//	dsmserve -nodes 2 -listen 127.0.0.1:7070 -clients 8 -ops 20000
//	dsmserve -nodes 2 -listen 127.0.0.1:7070 -ops 0        # serve until SIGINT
//	dsmserve -nodes 3 -durable -recover -crash 1:40:5ms -check
//
// Keys hash to DSM pages (-keys-per-page slots per page), pages group
// into -shards shards, and each shard's operations are serialized under
// one distributed lock from the cluster's decentralized lock plane, so
// a get observes the latest acknowledged put under lazy release
// consistency. With -durable (which needs -recover: only a run with a
// restart budget takes checkpoints), acknowledgments wait for a stable
// barrier-aligned checkpoint (group commit), so an acked write survives
// node crashes injected with -crash (node:n kills the node at its nth
// release).
//
// With -json, one JSON object — configuration, load result with latency
// quantiles, the server-side histogram, and the cluster's protocol
// counters — is printed to stdout, one object per run, suitable for
// appending to a JSON-lines file. With -check, the run uses a
// partitioned deterministic load and every key's final value is
// compared against a 1-node reference run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/transport"
	"lrcdsm/internal/serve"
	"lrcdsm/internal/serve/hist"
	"lrcdsm/internal/serve/loadgen"
)

// serveReport is the -json output schema: one object per run.
type serveReport struct {
	Nodes        int             `json:"nodes"`
	Protocol     string          `json:"protocol"`
	Transport    string          `json:"transport"`
	Route        string          `json:"route"`
	Durable      bool            `json:"durable,omitempty"`
	Keys         uint64          `json:"keys"`
	KeysPerPage  int             `json:"keys_per_page"`
	Shards       int             `json:"shards"`
	ServeWorkers int             `json:"serve_workers"`
	Listen       string          `json:"listen,omitempty"`
	Load         *loadgen.Result `json:"load,omitempty"`
	ServeHist    *hist.Summary   `json:"serve_hist"`
	Stats        *live.Stats     `json:"stats"`
}

func main() {
	var (
		nodes    = flag.Int("nodes", 2, "cluster size (one goroutine-backed node per processor)")
		protocol = flag.String("protocol", "LH", "live protocol: LH (hybrid update) or LI (invalidate)")
		trans    = flag.String("transport", "inproc", "DSM transport: inproc, tcp (loopback sockets)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-wait RPC timeout")

		keys        = flag.Uint64("keys", 1<<15, "key-space size (power of two)")
		keysPerPage = flag.Int("keys-per-page", 0, "key slots per DSM page (0: page size / 64)")
		shards      = flag.Int("shards", 0, "shard count, one distributed lock each (0: 64, capped at page count)")
		serveWk     = flag.Int("serve-workers", 4, "executor goroutines per serving node")
		route       = flag.String("route", "affinity", "request routing: affinity (shard's home node) or any (round-robin)")
		batch       = flag.Int("batch", 64, "max operations grouped under one lock acquire")

		mixName  = flag.String("mix", "update-uniform", "mix label for the report")
		readFrac = flag.Float64("read-frac", 0.5, "fraction of operations that are gets")
		dist     = flag.String("dist", "uniform", "key distribution: uniform, zipfian")
		theta    = flag.Float64("theta", 0.99, "zipfian skew (with -dist zipfian)")
		clients  = flag.Int("clients", 16, "logical load clients, each with one outstanding op")
		loadWk   = flag.Int("load-workers", 0, "goroutines multiplexing the clients (0: one per client, capped at 64)")
		rate     = flag.Float64("rate", 0, "offered rate in ops/sec across all clients (0: closed loop)")
		ops      = flag.Int64("ops", 100000, "total operations (0 with -listen: serve until SIGINT)")
		seed     = flag.Int64("seed", 1, "load generator seed")
		verify   = flag.Bool("verify", false, "partition the key space and check read-your-writes per client")

		listen = flag.String("listen", "", "serve the TCP frontend on this address and drive the load through it")

		durable     = flag.Bool("durable", false, "group-commit acks: acknowledge only after a stable checkpoint (needs -recover)")
		recoverRun  = flag.Bool("recover", false, "survive node crashes: restart killed nodes from the last checkpoint")
		maxRestarts = flag.Int("max-restarts", 3, "restart budget (with -recover)")
		ckptEvery   = flag.Int64("ckpt-every", 1, "checkpoint at every Nth barrier episode (supervised runs)")
		crashSpec   = flag.String("crash", "", "kill schedule: node:n[:delay][,...] — kill node at its nth release, restart after delay")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed for the supervisor's restart schedule (supervised runs)")

		jsonOut  = flag.Bool("json", false, "print the run report as one JSON object")
		checkRun = flag.Bool("check", false, "compare every key's final value against a 1-node reference run")
	)
	flag.Parse()
	if err := checkFlags(*durable, *recoverRun, *maxRestarts); err != nil {
		fmt.Fprintln(os.Stderr, "dsmserve:", err)
		flag.Usage()
		os.Exit(2)
	}

	prot, err := core.ParseProtocol(*protocol)
	if err != nil {
		fatal(err)
	}
	var crashes []live.Crash
	if *crashSpec != "" {
		if crashes, err = live.ParseCrashes(*crashSpec); err != nil {
			fatal(fmt.Errorf("-%w", err))
		}
	}

	scfg := serve.Config{
		Keys: *keys, KeysPerPage: *keysPerPage, Shards: *shards,
		Workers: *serveWk, Batch: *batch, Route: *route,
		Durable: *durable,
	}
	lcfg := loadgen.Config{
		Clients: *clients, Workers: *loadWk, Keys: *keys, Ops: *ops,
		Rate: *rate, Seed: *seed,
		Mix: loadgen.Mix{Name: *mixName, ReadFrac: *readFrac, Dist: *dist, Theta: *theta},
	}
	if *verify || *checkRun {
		// Both the live read-your-writes check and the cross-cluster
		// reference comparison need a deterministic final image.
		lcfg.Partition = true
		lcfg.Verify = true
	}

	ro := runOpts{
		prot: prot, trans: *trans, timeout: *timeout, listen: *listen,
		ckptEvery: *ckptEvery, crashes: crashes, seed: *chaosSeed,
	}
	if *recoverRun {
		ro.maxRestarts = *maxRestarts
	}
	got, err := runServe(*nodes, scfg, lcfg, ro)
	if err != nil {
		fatal(err)
	}

	if *checkRun && *nodes > 1 {
		refCfg := scfg
		refCfg.Durable = false // the reference defines the values, not the ack discipline
		ref, err := runServe(1, refCfg, lcfg, runOpts{prot: prot, trans: "inproc", timeout: *timeout})
		if err != nil {
			fatal(fmt.Errorf("reference run: %w", err))
		}
		bad := 0
		for k := uint64(0); k < *keys; k++ {
			a := got.store.KeyAddr(k)
			if g, r := got.cl.PeekU64(a), ref.cl.PeekU64(a); g != r {
				if bad < 5 {
					fmt.Fprintf(os.Stderr, "key %d: got %#x, 1-node reference %#x\n", k, g, r)
				}
				bad++
			}
		}
		if bad > 0 {
			fatal(fmt.Errorf("%d key(s) mismatch the 1-node reference", bad))
		}
		fmt.Fprintf(os.Stderr, "check: all %d keys match 1-node reference\n", *keys)
	}

	rep := serveReport{
		Nodes: *nodes, Protocol: prot.String(), Transport: *trans,
		Route: got.route, Durable: *durable,
		Keys: *keys, KeysPerPage: got.kpp, Shards: got.shards,
		ServeWorkers: *serveWk, Listen: *listen,
		Load: got.res, ServeHist: got.hist, Stats: got.stats,
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	printReport(&rep)
}

// runOpts carries the cluster-shape knobs from flags into runServe.
type runOpts struct {
	prot    core.Protocol
	trans   string
	timeout time.Duration
	listen  string

	maxRestarts int // 0: no recovery, and a crash ends the run
	ckptEvery   int64
	crashes     []live.Crash
	seed        int64
}

// checkFlags refuses flag combinations that cannot do what they promise.
// -durable acknowledges an op once a stable checkpoint covers it, and
// only a run with a restart budget takes checkpoints: without one every
// op would be acknowledged with nothing durable behind it.
func checkFlags(durable, recoverRun bool, maxRestarts int) error {
	if durable && (!recoverRun || maxRestarts <= 0) {
		return fmt.Errorf("-durable needs -recover with -max-restarts above 0 (only a recovering run takes checkpoints)")
	}
	return nil
}

// serveResult is one finished serving run.
type serveResult struct {
	cl     *live.Cluster
	store  *serve.Store
	res    *loadgen.Result
	hist   *hist.Summary
	stats  *live.Stats
	route  string
	kpp    int
	shards int
}

// runServe brings up the serving cluster, drives the load (in-proc, or
// through the TCP frontend with listen set — ops 0 serves external
// clients until SIGINT), shuts down and returns everything measured.
func runServe(nodes int, scfg serve.Config, lcfg loadgen.Config, ro runOpts) (*serveResult, error) {
	cfg := live.Config{Nodes: nodes, Protocol: ro.prot, RPCTimeout: ro.timeout}
	var err error
	switch ro.trans {
	case "inproc":
		cfg.Net = transport.NewInprocNet(nodes)
	case "tcp":
		if cfg.Net, err = transport.NewTCPLoopbackNet(nodes, transport.TCPOptions{}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown transport %q (want inproc or tcp)", ro.trans)
	}
	cl, err := live.New(cfg)
	if err != nil {
		return nil, err
	}
	st, err := serve.NewStore(cl, scfg)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(st)

	type out struct {
		stats *live.Stats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		stats, rerr := cl.RunSupervised(srv.NodeWorker, live.RecoverOptions{
			MaxRestarts: ro.maxRestarts, CheckpointEvery: ro.ckptEvery,
			Replicate: true, Seed: ro.seed, Crashes: ro.crashes,
		})
		done <- out{stats, rerr}
	}()

	var fe *serve.Frontend
	mk := func(int) (loadgen.Driver, error) { return srv, nil }
	if ro.listen != "" {
		if fe, err = serve.ServeTCP(srv, ro.listen); err != nil {
			srv.Shutdown()
			<-done
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "dsmserve: frontend listening on %s\n", fe.Addr())
		var dialed []*serve.Client
		mk = func(int) (loadgen.Driver, error) {
			c, derr := serve.Dial(fe.Addr())
			if derr == nil {
				dialed = append(dialed, c)
			}
			return c, derr
		}
		defer func() {
			for _, c := range dialed {
				c.Close()
			}
		}()
	}

	var res *loadgen.Result
	var lerr error
	if lcfg.Ops == 0 && fe != nil {
		// Pure service mode: external clients drive the frontend.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		signal.Stop(sig)
	} else {
		res, lerr = loadgen.Run(lcfg, mk)
	}
	if fe != nil {
		fe.Close()
	}
	srv.Shutdown()
	o := <-done
	if lerr != nil {
		return nil, fmt.Errorf("load: %w", lerr)
	}
	if o.err != nil {
		return nil, fmt.Errorf("cluster: %w", o.err)
	}
	if res != nil && res.Violations != 0 {
		return nil, fmt.Errorf("%d read-your-writes violations", res.Violations)
	}
	rc := st.Resolved()
	sr := &serveResult{
		cl: cl, store: st, res: res, hist: srv.HistSummary(), stats: o.stats,
		route: rc.Route, kpp: rc.KeysPerPage, shards: rc.Shards,
	}
	return sr, nil
}

func printReport(rep *serveReport) {
	fmt.Printf("serve on %d live nodes (%s, %s, route %s): %d shards, %d keys (%d/page), %d executors/node\n",
		rep.Nodes, rep.Protocol, rep.Transport, rep.Route,
		rep.Shards, rep.Keys, rep.KeysPerPage, rep.ServeWorkers)
	if r := rep.Load; r != nil {
		fmt.Printf("  mix %s: %d ops (%d get / %d put), %.0f ops/s",
			r.Mix.Name, r.Ops, r.Gets, r.Puts, r.OpsPerSec)
		if r.TargetRate > 0 {
			fmt.Printf(" (target %.0f)", r.TargetRate)
		}
		fmt.Println()
		if l := r.Latency; l != nil && l.Count > 0 {
			fmt.Printf("  client latency: p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
				ns(l.P50Ns), ns(l.P90Ns), ns(l.P99Ns), ns(l.P999Ns), ns(l.MaxNs))
		}
		if r.VerifiedKeys > 0 {
			fmt.Printf("  verify: read-your-writes held, %d keys swept\n", r.VerifiedKeys)
		}
	}
	if h := rep.ServeHist; h != nil && h.Count > 0 {
		fmt.Printf("  server queue+exec: p50 %s  p99 %s  p99.9 %s\n", ns(h.P50Ns), ns(h.P99Ns), ns(h.P999Ns))
	}
	st := rep.Stats
	fmt.Printf("  cluster: %d gets, %d puts (%d inline), lock wait %.1f ms, msgs %d, diffs %d applied\n",
		st.Total.ServeGets, st.Total.ServePuts, st.Total.ServeInline,
		float64(st.Total.LockWaitNs)/1e6,
		st.Total.MsgsSent, st.Total.DiffsApplied)
	if st.Restarts > 0 || st.Total.CheckpointsTaken > 0 {
		fmt.Printf("  recovery: %d restarts, %d checkpoints\n", st.Restarts, st.Total.CheckpointsTaken)
	}
}

// ns renders a nanosecond count as a human duration.
func ns(v int64) string { return time.Duration(v).String() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmserve:", err)
	os.Exit(1)
}
