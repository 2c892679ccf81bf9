package main

import (
	"fmt"
	"runtime"
	"time"

	"lrcdsm/internal/core"
)

// runPerLayer is a -trace 1 run: one untraced and one traced iteration
// per protocol give the workload's run counters, the application's view
// of the runtime and the tracing overhead; the probe ladder then times
// every layer's public API on its own.
func runPerLayer(w *workload, seed int64, budget time.Duration, spansOut string) (*result, error) {
	r, _, err := timedSetUp(w, seed, 1)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	tr := newTracer()
	var host hostSeries
	host.mark()
	var plain []iterResult
	var plainWall, tracedWall time.Duration
	for _, p := range []core.Protocol{core.LH, core.LI} {
		for _, traced := range []bool{false, true} {
			runtime.GC()
			var it iterResult
			if traced {
				tr.iter++
				root := tr.begin("iteration", 0)
				it = r.run(p, tr, root.ID)
				root.End = tr.now()
				tr.record(root)
				tracedWall += it.wall
			} else {
				it = r.run(p, nil, 0)
				plainWall += it.wall
				plain = append(plain, it)
			}
			host.mark()
			res.Attempted += it.ops
			if !it.ok {
				res.Failed += it.ops
			}
		}
	}
	res.Correct = res.Failed == 0
	if spansOut != "" {
		if err := tr.write(spansOut); err != nil {
			return nil, err
		}
	}

	runCounters(res, plain)
	appView(res, tr, plain)
	res.set(perLayer, "trace_overhead_frac", float64(tracedWall)/float64(plainWall)-1)
	res.set(perLayer, "host.calib_ms", median(host.calib))

	// The ladder gets about as long as the end-to-end run measures for:
	// ~35 timed probes of probeRepeats repeats each.
	if err := runLadder(res, budget/500, false, plain[0].sim); err != nil {
		return nil, err
	}
	fmt.Printf("%s seed=%d: per-layer metrics (%d spans traced)\n", w.name, seed, len(tr.spans))
	printMetrics(perLayer, res)
	return res, nil
}

// runCounters reports what the workload's untraced iterations moved and
// where their workers waited: medians over the iterations, schedule-
// dependent on the live runtime, exact on the simulator. A counter the
// workload's engine does not have reads 0.
func runCounters(res *result, its []iterResult) {
	cols := map[string][]float64{}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for _, it := range its {
		switch {
		case it.stats != nil:
			t := it.stats.Total
			workerNs := float64(it.stats.ElapsedNs) * float64(it.stats.Nodes)
			add("node.msgs_per_iter", float64(t.MsgsSent))
			add("node.bytes_per_iter", float64(t.BytesSent))
			add("node.page_fetches_per_iter", float64(t.PageFetches))
			add("node.diff_pulls_per_iter", float64(t.DiffPulls))
			add("node.lock_wait_frac", frac(float64(t.LockWaitNs), workerNs))
			add("node.barrier_wait_frac", frac(float64(t.BarrierWaitNs), workerNs))
			add("node.fault_wait_frac", frac(float64(t.FaultWaitNs), workerNs))
			add("node.max_msg_frac", it.stats.MaxMsgFrac)
			add("recover.ckpt_bytes_per_iter", float64(t.CheckpointBytes))
			add("recover.ckpts_per_iter", float64(t.CheckpointsTaken))
			add("serve.lock_acquires_per_kop", frac(1000*float64(t.LockAcquires), float64(t.ServeGets+t.ServePuts)))
		case it.sim != nil:
			s := it.sim
			add("node.msgs_per_iter", float64(s.msgs))
			add("node.bytes_per_iter", float64(s.dataBytes))
			add("node.page_fetches_per_iter", float64(s.pageFetches))
			add("node.lock_wait_frac", frac(float64(s.lockWait), float64(s.cycles)))
			add("node.barrier_wait_frac", frac(float64(s.barrierWait), float64(s.cycles)))
			add("node.fault_wait_frac", frac(float64(s.missWait), float64(s.cycles)))
		}
	}
	for _, name := range []string{
		"node.msgs_per_iter", "node.bytes_per_iter", "node.page_fetches_per_iter", "node.diff_pulls_per_iter",
		"node.lock_wait_frac", "node.barrier_wait_frac", "node.fault_wait_frac", "node.max_msg_frac",
		"recover.ckpt_bytes_per_iter", "recover.ckpts_per_iter", "serve.lock_acquires_per_kop",
	} {
		res.set(perLayer, name, median(cols[name]))
	}
}

// appView reports the traced iterations as the application saw them:
// how long its synchronization calls took and what share of a worker's
// time they were. The app workloads span Lock/Unlock/Barrier under each
// node's worker; the serve workloads span a sample of Server.Do calls
// under each client, so there the "sync" share is time inside Do and the
// rest is the load generator; the simulator has no calls to wrap, so its
// shares are the exact simulated wait cycles and its call times read 0.
func appView(res *result, tr *tracer, plain []iterResult) {
	ts := summarize(tr.spans, "worker", 1)
	if len(plain[0].lat) > 0 {
		ts = summarize(tr.spans, "client", doSampling)
	}
	if s := plain[0].sim; s != nil && s.cycles > 0 {
		ts.syncFrac = float64(s.lockWait+s.barrierWait) / float64(s.cycles)
		ts.selfFrac = 1 - ts.syncFrac
	}
	res.set(perLayer, "app.lock_call_us_p50", ts.lockP50us)
	res.set(perLayer, "app.lock_call_us_p99", ts.lockTailus)
	res.set(perLayer, "app.barrier_call_us_p50", ts.barrierP50us)
	res.set(perLayer, "app.sync_frac", ts.syncFrac)
	res.set(perLayer, "app.self_frac", ts.selfFrac)
	fmt.Printf("traced: %d lock calls (app.lock_call_us_p99 taken at p%g), %d barrier calls\n",
		ts.lockCalls, ts.lockTailQ*100, ts.barrierCalls)
}
