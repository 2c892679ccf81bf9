// Command dsmbench is the repository's benchmark: six workloads over the
// simulator, the live runtime and the KV front end, each checked against
// an oracle, plus a per-layer probe ladder and a traced run that explain
// an end-to-end number by the layers under it. See README.md in this
// directory for what every metric means.
//
// Usage:
//
//	dsmbench -workload jacobi-inproc -seed 1 -seconds 10            # end-to-end metrics
//	dsmbench -workload jacobi-inproc -seed 1 -seconds 10 -trace 1   # per-layer metrics
//	dsmbench -probes                                               # the probe ladder alone, long form
//	dsmbench -selfcheck -k 10                                      # run-to-run spread of every metric
//	dsmbench -list                                                 # workloads and metric names
//
// A workload run alternates timed LH and LI iterations in one process
// for -seconds seconds, after a set-up (inputs, a 1-node reference run
// as the oracle, one warm-up iteration per protocol) that is itself run
// three times so its median can be reported. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/serve/hist"
)

// metricDef declares one metric; BENCHMARK.json must list exactly these
// (TestBenchmarkJSONMatches).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// The end-to-end metrics, reported by every workload. Times are scaled
// to the nominal host (calib.go). The bounds are what this sandbox can
// resolve: over ten runs per workload the quartile spread of a time metric
// is 0.02-0.09 on a quiet host and up to 0.12 on sim-sweep, a third of
// the 0.25 the benchmark contract allows at most (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"elapsed_ms", "ms", "lower", 0.25},
	{"elapsed_li_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// setupRepeats is how many times a run sets up, to report the median.
const setupRepeats = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{v, d.Unit}
			return
		}
	}
	panic("dsmbench: undeclared metric " + name)
}

func main() {
	var (
		wname     = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "workload seed: feeds the load generator's request streams")
		seconds   = flag.Float64("seconds", 10, "how long to measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics from untraced iterations; 1: per-layer metrics from the probe ladder and a traced run")
		spansOut  = flag.String("spans", "", "with -trace 1: write the traced run's spans to this file as JSON")
		probes    = flag.Bool("probes", false, "run the per-layer probe ladder alone (1 s per repeat) and print it")
		selfcheck = flag.Bool("selfcheck", false, "run every workload -k times in fresh processes and report each metric's spread")
		k         = flag.Int("k", 3, "with -selfcheck: runs per workload")
		list      = flag.Bool("list", false, "print workloads and metric names as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case *list:
		printList()
	case *probes:
		printEnv()
		res := &result{Metrics: map[string]metricValue{}}
		if err := runLadder(res, time.Second, true, nil); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if err := runSelfcheck(*k, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*wname)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *wname))
		}
		if *seconds <= 0 {
			fatal(fmt.Errorf("-seconds %v: want > 0", *seconds))
		}
		budget := time.Duration(*seconds * float64(time.Second))
		printEnv()
		var res *result
		var err error
		if *trace == 0 {
			res, err = runEndToEnd(w, *seed, budget)
		} else {
			res, err = runPerLayer(w, *seed, budget, *spansOut)
		}
		if err != nil {
			fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmbench:", err)
	os.Exit(1)
}

// printEnv records what the numbers were measured on.
func printEnv() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: GOMAXPROCS=%d nproc=%d %s %s/%s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func printList() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var out struct {
		Workloads []wl        `json:"workloads"`
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	out.EndToEnd, out.PerLayer = endToEnd, perLayer
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedSetUp sets the workload up repeats times and returns the last
// runner and the median set-up time, scaled to the nominal host.
func timedSetUp(w *workload, seed int64, repeats int) (runner, float64, error) {
	var r runner
	var host hostSeries
	var took []time.Duration
	host.mark()
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0))
		host.mark()
	}
	secs := make([]float64, repeats)
	for i, d := range took {
		secs[i] = d.Seconds() * host.factor(i)
	}
	fmt.Printf("set-up s: %.3f (raw %v)\n", secs, took)
	return r, median(secs), nil
}

// runEndToEnd is a -trace 0 run: alternate timed LH and LI iterations for
// budget, check each, and report the end-to-end metrics. Every time is
// scaled to the nominal host (see calib.go); the raw wall times are
// printed beside them.
func runEndToEnd(w *workload, seed int64, budget time.Duration) (*result, error) {
	r, setupS, err := timedSetUp(w, seed, setupRepeats)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	var (
		host  hostSeries
		its   []iterResult // in time order: LH, LI, LH, ...
		prots []core.Protocol
	)
	t0 := time.Now()
	var pair time.Duration
	host.mark()
	// Whole LH+LI pairs only, so drift over the run falls on both
	// protocols alike; stop when the next pair would mostly overshoot.
	for len(its) == 0 || time.Since(t0)+pair/2 < budget {
		p0 := time.Now()
		for _, p := range []core.Protocol{core.LH, core.LI} {
			runtime.GC() // outside the timed region
			its, prots = append(its, r.run(p, nil, 0)), append(prots, p)
			host.mark()
		}
		pair = time.Since(p0)
	}

	var (
		ms, raw = map[core.Protocol][]float64{}, map[core.Protocol][]float64{}
		factors []float64 // of the LH iterations
		lhOps   int64
		lhMs    float64
		lat     = map[int64]hist.Bucket{}
	)
	for i, it := range its {
		res.Attempted += it.ops
		if !it.ok {
			res.Failed += it.ops
			continue
		}
		p, factor := prots[i], host.factor(i)
		wallMs := float64(it.wall.Nanoseconds()) / 1e6
		raw[p] = append(raw[p], wallMs)
		ms[p] = append(ms[p], wallMs*factor)
		if p == core.LH {
			factors = append(factors, factor)
			lhOps += it.ops
			lhMs += wallMs * factor
			mergeBuckets(lat, it.lat)
		}
	}
	if len(ms[core.LH]) == 0 || len(ms[core.LI]) == 0 {
		return nil, fmt.Errorf("%s: no iteration passed its check", w.name)
	}
	res.Correct = res.Failed == 0

	elapsed := median(ms[core.LH])
	p50, p99, note := elapsed*1e3, elapsed*1e3, "median iteration latency; too few iterations for a tail, so lat_p99_us repeats the median"
	if len(lat) > 0 {
		// Per-op samples of all LH batches share one histogram, so they
		// are scaled by the batches' median factor.
		scale := median(factors) / 1e3
		q50, n := bucketQuantile(lat, 0.50)
		q := tailQuantile(n, 0.99)
		q99, _ := bucketQuantile(lat, q)
		q999, _ := bucketQuantile(lat, tailQuantile(n, 0.999))
		p50, p99 = q50*scale, q99*scale
		note = fmt.Sprintf("per-op latency over %d LH samples; lat_p99_us taken at p%g; p%g = %.1f us (not an end-to-end metric)",
			n, q*100, tailQuantile(n, 0.999)*100, q999*scale)
	}
	res.set(endToEnd, "setup_s", setupS)
	res.set(endToEnd, "elapsed_ms", elapsed)
	res.set(endToEnd, "elapsed_li_ms", median(ms[core.LI]))
	res.set(endToEnd, "ops_per_s", float64(lhOps)/(lhMs/1e3))
	res.set(endToEnd, "lat_p50_us", p50)
	res.set(endToEnd, "lat_p99_us", p99)
	res.set(endToEnd, "peak_rss_mb", peakRSSMB())

	fmt.Printf("%s seed=%d: %d LH + %d LI iterations in %.1f s after %d set-ups\n",
		w.name, seed, len(ms[core.LH]), len(ms[core.LI]), time.Since(t0).Seconds(), setupRepeats)
	fmt.Printf("host: calibration median %.2f ms (nominal %.1f): times below are scaled by %.3f on median\n",
		median(host.calib), nominalCalibMs, nominalCalibMs/median(host.calib))
	fmt.Printf("calib ms: %.1f\n", host.calib)
	fmt.Printf("raw LH ms: %.1f\nraw LI ms: %.1f\n", raw[core.LH], raw[core.LI])
	fmt.Printf("LH ms: %.1f\nLI ms: %.1f\nlatency: %s\n", ms[core.LH], ms[core.LI], note)
	printMetrics(endToEnd, res)
	return res, nil
}

func printMetrics(defs []metricDef, res *result) {
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("  %-34s %16.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}
