// Command dsmd runs one DSM application on the live runtime: an N-node
// cluster of goroutine-backed LRC protocol engines connected by an
// in-process or TCP-loopback transport, executing the same workloads as
// the simulator (cmd/dsmsim) with real concurrency.
//
// Usage:
//
//	dsmd -app jacobi -nodes 4 -protocol LH -transport inproc -scale test
//	dsmd -app water -nodes 2 -transport tcp -json
//	dsmd -app tsp -nodes 4 -chaos-seed 42 -drop 0.05 -delay 2ms -check
//	dsmd -app jacobi -nodes 4 -recover -crash 2:2:10ms -check
//
// With -json, one JSON object describing the run — configuration,
// elapsed time, per-node and total protocol counters, and any injected
// faults — is printed to stdout (one object per run, suitable for
// appending to a JSON-lines file). With -check, the run is held to the
// release-consistency invariants (internal/check) — except under
// -recover, whose rollbacks the checker has no rule for — and its result
// regions are compared against a 1-node reference run of the live
// engine.
//
// The -drop/-dup/-delay/-reset/-partition flags inject transport faults
// (internal/live/chaos) on a schedule derived from -chaos-seed, so a
// faulty run is reproducible; -retry and -hb-timeout tune
// the engine's recovery machinery to match the fault rate.
//
// With -recover, the cluster survives node crashes: barrier-aligned
// checkpoints are taken every -ckpt-every episodes (on disk under
// -ckpt-dir, in memory otherwise), and a node killed by the -crash
// schedule (at its nth release) is restarted from the last stable
// checkpoint up to -max-restarts times before the run degrades to the
// structured abort a run without a restart budget reports. -deadline bounds
// the whole run in wall time; on expiry dsmd dumps a stats snapshot as
// JSON and exits nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lrcdsm/internal/check"
	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live"
	"lrcdsm/internal/live/chaos"
	ckpt "lrcdsm/internal/live/recover"
	"lrcdsm/internal/live/transport"
)

// runReport is the -json output schema: one object per run.
type runReport struct {
	App       string          `json:"app"`
	Scale     string          `json:"scale"`
	Transport string          `json:"transport"`
	ChaosSeed int64           `json:"chaos_seed,omitempty"`
	Chaos     *chaos.Counters `json:"chaos,omitempty"`
	Stats     *live.Stats     `json:"stats"`
}

// runOpts carries the tuning knobs from flags into runLive.
type runOpts struct {
	timeout   time.Duration
	retryBase time.Duration
	hbTimeout time.Duration
	chaos     *chaos.Config  // nil: no fault injection
	checker   *check.Checker // nil: no invariant checking
	deadline  time.Duration

	// supervise is the run's kill schedule and control-plane knobs, with
	// -recover also its restart budget and checkpoints.
	supervise live.RecoverOptions
}

func main() {
	var (
		appName   = flag.String("app", "jacobi", "workload: jacobi, tsp, water, cholesky")
		protocol  = flag.String("protocol", "LH", "live protocol: LH (hybrid update) or LI (invalidate)")
		nodes     = flag.Int("nodes", 4, "cluster size (one goroutine-backed node per processor)")
		trans     = flag.String("transport", "inproc", "transport: inproc, tcp (loopback sockets)")
		scaleName = flag.String("scale", "test", "problem scale: paper, bench, test")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-wait RPC timeout")
		jsonOut   = flag.Bool("json", false, "print the run report as one JSON object")
		checkRun  = flag.Bool("check", false, "check the run's invariants (without -recover) and its result regions against a 1-node live reference run")

		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the fault-injection schedule")
		dropP     = flag.Float64("drop", 0, "per-frame probability of a silent drop")
		dupP      = flag.Float64("dup", 0, "per-frame probability of a duplicate send")
		delayP    = flag.Float64("delay-p", 0, "per-frame probability of a reordering delay")
		delayMax  = flag.Duration("delay", 2*time.Millisecond, "maximum injected delay (with -delay-p)")
		resetP    = flag.Float64("reset", 0, "per-frame probability of a connection reset (tcp)")
		partition = flag.String("partition", "", "partition a node pair: a:b[:from[:dur]] (durations; dur 0 = forever)")

		retryBase = flag.Duration("retry", 0, "base RPC retransmission backoff (0: default 200ms)")
		hbTimeout = flag.Duration("hb-timeout", 0, "silence before the manager declares a node down (0: default 10s, negative: disable)")

		recoverRun  = flag.Bool("recover", false, "survive node crashes: checkpoint at barriers, restart killed nodes")
		maxRestarts = flag.Int("max-restarts", 3, "restart budget before degrading to a structured abort (with -recover)")
		ckptEvery   = flag.Int64("ckpt-every", 1, "checkpoint at every Nth barrier episode (with -recover)")
		ckptDir     = flag.String("ckpt-dir", "", "directory for on-disk checkpoint stores (default: in-memory)")
		crashSpec   = flag.String("crash", "", "kill schedule: node:n[:delay][,...] — kill node at its nth release, restart after delay")
		deadline    = flag.Duration("deadline", 0, "wall-clock budget for the run; on expiry dump a stats JSON snapshot and exit nonzero")

		votersN    = flag.Int("voters", 0, "initial consensus voting membership: nodes [0,N) vote, the rest run non-voting replicas (0: all, or node 0 alone below 3 nodes)")
		addReplica = flag.String("add-replica", "", "runtime voter promotions: node:delay[,...] — promote node to a voter after delay")
	)
	flag.Parse()

	prot, err := core.ParseProtocol(*protocol)
	if err != nil {
		fatal(err)
	}
	scale, err := harness.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}

	opts := runOpts{
		timeout:   *timeout,
		retryBase: *retryBase,
		hbTimeout: *hbTimeout,
		deadline:  *deadline,
		supervise: live.RecoverOptions{
			Seed: *chaosSeed, Voters: *votersN,
		},
	}
	// Without -recover the restart budget is zero: no checkpoints, and
	// the first kill ends the run.
	if ro := &opts.supervise; *recoverRun {
		ro.MaxRestarts, ro.CheckpointEvery, ro.Replicate = *maxRestarts, *ckptEvery, true
		if *ckptDir != "" {
			ro.Stores = make([]ckpt.Store, *nodes)
			for i := range ro.Stores {
				if ro.Stores[i], err = ckpt.NewDirStore(filepath.Join(*ckptDir, fmt.Sprintf("node%d", i))); err != nil {
					fatal(err)
				}
			}
		}
	}
	if *addReplica != "" {
		if opts.supervise.AddReplicas, err = parseAddReplicas(*addReplica); err != nil {
			fatal(err)
		}
	}
	if *crashSpec != "" {
		if opts.supervise.Crashes, err = live.ParseCrashes(*crashSpec); err != nil {
			fatal(fmt.Errorf("-%w", err))
		}
	}
	if *dropP > 0 || *dupP > 0 || *delayP > 0 || *resetP > 0 || *partition != "" {
		cfg := &chaos.Config{
			Seed:     *chaosSeed,
			DropP:    *dropP,
			DupP:     *dupP,
			DelayP:   *delayP,
			DelayMax: *delayMax,
			ResetP:   *resetP,
		}
		if *partition != "" {
			p, err := parsePartition(*partition)
			if err != nil {
				fatal(err)
			}
			cfg.Partitions = []chaos.Partition{p}
		}
		opts.chaos = cfg
	}

	if *checkRun && *nodes > 1 && !*recoverRun {
		opts.checker = check.New(*nodes)
	}
	cluster, stats, faults, err := runLive(*appName, scale, prot, *nodes, *trans, opts)
	if err != nil {
		fatal(err)
	}
	if opts.checker != nil {
		iv, d := opts.checker.Seen()
		fmt.Fprintf(os.Stderr, "check: no invariant violations in %d intervals and %d diff applications\n", iv, d)
	}

	if *checkRun && *nodes > 1 {
		// The reference runs fault-free: it defines what the faulty run
		// must still compute.
		ref, _, _, err := runLive(*appName, scale, prot, 1, "inproc", runOpts{timeout: *timeout})
		if err != nil {
			fatal(fmt.Errorf("reference run: %w", err))
		}
		app, err := harness.NewApp(*appName, scale)
		if err != nil {
			fatal(err)
		}
		if ra, ok := app.(harness.ResultApp); ok {
			if vs := check.CompareRegions(cluster, ref, ra.ResultRegions()); len(vs) > 0 {
				for _, v := range vs {
					fmt.Fprintf(os.Stderr, "region mismatch: %s\n", v.String())
				}
				fatal(fmt.Errorf("%d result-region mismatch(es) against 1-node reference", len(vs)))
			}
			fmt.Fprintf(os.Stderr, "check: result regions match 1-node reference\n")
		}
	}

	if *jsonOut {
		rep := runReport{App: *appName, Scale: *scaleName, Transport: *trans, Stats: stats}
		if faults != nil {
			rep.ChaosSeed = *chaosSeed
			rep.Chaos = faults
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	printReport(*appName, *trans, stats, faults)
}

// parsePartition reads "a:b[:from[:dur]]" — node pair, optional window
// start and length (Go durations; a zero or omitted length partitions
// forever).
func parsePartition(s string) (chaos.Partition, error) {
	var p chaos.Partition
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return p, fmt.Errorf("-partition %q: want a:b[:from[:dur]]", s)
	}
	a, errA := strconv.Atoi(parts[0])
	b, errB := strconv.Atoi(parts[1])
	if errA != nil || errB != nil || a == b {
		return p, fmt.Errorf("-partition %q: bad node pair", s)
	}
	p.A, p.B = a, b
	if len(parts) >= 3 {
		d, err := time.ParseDuration(parts[2])
		if err != nil {
			return p, fmt.Errorf("-partition %q: bad window start: %w", s, err)
		}
		p.From = d
	}
	if len(parts) == 4 {
		d, err := time.ParseDuration(parts[3])
		if err != nil {
			return p, fmt.Errorf("-partition %q: bad window length: %w", s, err)
		}
		p.Dur = d
	}
	return p, nil
}

// parseAddReplicas reads "node:delay[,...]" — promote the node to a
// consensus voter once delay has elapsed into the run.
func parseAddReplicas(s string) ([]live.ReplicaAdd, error) {
	var adds []live.ReplicaAdd
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("-add-replica %q: want node:delay", entry)
		}
		n, errN := strconv.Atoi(parts[0])
		d, errD := time.ParseDuration(parts[1])
		if errN != nil || errD != nil || n < 0 {
			return nil, fmt.Errorf("-add-replica %q: bad node or delay", entry)
		}
		adds = append(adds, live.ReplicaAdd{Node: n, After: d})
	}
	return adds, nil
}

// runLive executes one workload on a fresh live cluster and verifies its
// result. With opts.chaos set, every node's transport is wrapped with
// fault injection and the summed fault counters are returned. The
// supervisor kills the scheduled victims and restarts them from the
// last stable barrier-aligned checkpoint until opts.supervise's restart
// budget runs out; the first kill past it ends the run.
func runLive(appName string, scale harness.Scale, prot core.Protocol, nodes int, trans string, opts runOpts) (*live.Cluster, *live.Stats, *chaos.Counters, error) {
	app, err := harness.NewApp(appName, scale)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := live.Config{
		Nodes:            nodes,
		Protocol:         prot,
		RPCTimeout:       opts.timeout,
		RetryBase:        opts.retryBase,
		HeartbeatTimeout: opts.hbTimeout,
	}
	// One rebuildable network for every run: recovery gives a restarted
	// node a fresh incarnation through Rejoin.
	var inner transport.Network
	switch trans {
	case "inproc":
		inner = transport.NewInprocNet(nodes)
	case "tcp":
		if inner, err = transport.NewTCPLoopbackNet(nodes, transport.TCPOptions{}); err != nil {
			return nil, nil, nil, err
		}
	default:
		return nil, nil, nil, fmt.Errorf("unknown transport %q (want inproc or tcp)", trans)
	}
	cfg.Net = inner
	var nw *chaos.Net
	if opts.chaos != nil {
		nw = chaos.WrapNet(inner, *opts.chaos)
		cfg.Net = nw
	}
	if opts.checker != nil {
		cfg.Observer = opts.checker
	}
	cluster, err := live.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	app.Configure(cluster)

	worker := func(w core.Worker) { app.Worker(w) }
	run := func() (*live.Stats, error) { return cluster.RunSupervised(worker, opts.supervise) }

	var stats *live.Stats
	if opts.deadline > 0 {
		type result struct {
			stats *live.Stats
			err   error
		}
		done := make(chan result, 1)
		go func() {
			s, e := run()
			done <- result{s, e}
		}()
		select {
		case r := <-done:
			stats, err = r.stats, r.err
		case <-time.After(opts.deadline):
			// The run is still in flight; dump what the cluster has done
			// so far and exit nonzero so scripts see the overrun.
			rep := runReport{
				App: appName, Scale: scaleString(scale), Transport: trans,
				Stats: cluster.StatsSnapshot(),
			}
			rep.Chaos = liveFaults(nw)
			json.NewEncoder(os.Stdout).Encode(rep)
			fmt.Fprintf(os.Stderr, "dsmd: deadline %v exceeded, aborting\n", opts.deadline)
			os.Exit(2)
		}
	} else {
		stats, err = run()
	}
	faults := liveFaults(nw)
	if opts.checker != nil && opts.checker.Err() != nil {
		// A violation is the root cause of whatever the run did next.
		err = opts.checker.Err()
	}
	if err != nil {
		return nil, nil, faults, fmt.Errorf("%s/%v/%dn: %w", appName, prot, nodes, err)
	}
	if err := app.Verify(cluster); err != nil {
		return nil, nil, faults, fmt.Errorf("%s/%v/%dn failed verification: %w", appName, prot, nodes, err)
	}
	return cluster, stats, faults, nil
}

// liveFaults returns the injected-fault totals, nil without fault
// injection.
func liveFaults(nw *chaos.Net) *chaos.Counters {
	if nw == nil {
		return nil
	}
	sum := nw.Counters()
	return &sum
}

func scaleString(s harness.Scale) string {
	switch s {
	case harness.ScalePaper:
		return "paper"
	case harness.ScaleBench:
		return "bench"
	}
	return "test"
}

func printReport(appName, trans string, st *live.Stats, faults *chaos.Counters) {
	fmt.Printf("%s on %d live nodes (%s, %s): %.1f ms\n",
		appName, st.Nodes, st.Protocol, trans, float64(st.ElapsedNs)/1e6)
	fmt.Printf("  msgs %d (%.1f KB), data %.1f KB, faults %d, fetches %d, pulls %d, grant diffs %d\n",
		st.Total.MsgsSent, float64(st.Total.BytesSent)/1024,
		float64(st.Total.DataBytes)/1024,
		st.Total.PageFaults, st.Total.PageFetches, st.Total.DiffPulls, st.Total.GrantDiffs)
	fmt.Printf("  intervals %d, diffs created %d / applied %d (%.1f KB), invalidations %d\n",
		st.Total.Intervals, st.Total.DiffsCreated, st.Total.DiffsApplied,
		float64(st.Total.DiffBytes)/1024, st.Total.Invalidations)
	fmt.Printf("  locks %d (wait %.1f ms), barriers %d (wait %.1f ms)\n",
		st.Total.LockAcquires, float64(st.Total.LockWaitNs)/1e6,
		st.Total.BarrierEpisodes, float64(st.Total.BarrierWaitNs)/1e6)
	fmt.Printf("  release: flush drain %.1f ms (barriers, final flush), home-page wait %.1f ms, %d requests parked at homes, %d flush retransmits, %d acks carried on other frames\n",
		float64(st.Total.FlushWaitNs)/1e6, float64(st.Total.HomeWaitNs)/1e6,
		st.Total.ParkedReqs, st.Total.FlushRetransmits, st.Total.AcksCarried)
	fmt.Printf("  lock plane: %d local reacquires, %d home forwards, %d handoffs, %d requests handled on their sender, %d idle polls parked (%d by the backstop)\n",
		st.Total.LockLocalAcquires, st.Total.LockForwards, st.Total.LockHandoffs,
		st.Total.InlineRequests, st.Total.BackoffParks, st.Total.BackoffTimeouts)
	if st.MaxMsgNode >= 0 {
		fmt.Printf("  balance: busiest node %d sent %.1f%% of all messages\n",
			st.MaxMsgNode, 100*st.MaxMsgFrac)
	}
	fmt.Printf("  retries %d, dup reqs %d, dup replies %d\n",
		st.Total.RPCRetries, st.Total.DupRequests, st.Total.DupReplies)
	if faults != nil {
		fmt.Printf("  chaos: %d faults (drop %d, dup %d, delay %d, reset %d, partition %d)\n",
			faults.Total(), faults.Dropped, faults.Duplicated, faults.Delayed,
			faults.Resets, faults.Partitioned)
	}
	if st.Restarts > 0 || st.Total.CheckpointsTaken > 0 || st.Total.StaleFrames > 0 {
		fmt.Printf("  recovery: %d restarts (%.1f ms), %d checkpoints (%.1f KB), %d stale frames fenced\n",
			st.Restarts, float64(st.RecoveryNs)/1e6,
			st.Total.CheckpointsTaken, float64(st.Total.CheckpointBytes)/1024,
			st.Total.StaleFrames)
	}
	for _, ns := range st.PerNode {
		fmt.Printf("  node %d: sent %d msgs, faults %d, intervals %d\n",
			ns.Node, ns.MsgsSent, ns.PageFaults, ns.Intervals)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmd:", err)
	os.Exit(1)
}
