package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/serve/hist"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v, want 0", m)
	}
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 1: 50, 0.125: 15, 0.9: 46} {
		if got := percentile(xs, q); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// The highest percentile reported is the highest with at least ten
// samples beyond it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n     int64
		limit float64
		want  float64
	}{
		{0, 0.99, 0.50},
		{6, 0.99, 0.50},
		{99, 0.99, 0.50},
		{100, 0.99, 0.90},
		{999, 0.99, 0.90},
		{1000, 0.99, 0.99},
		{1_000_000, 0.99, 0.99},
		{9_999, 0.999, 0.99},
		{10_000, 0.999, 0.999},
		{2_000_000, 1, 0.9999},
	} {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	m := map[int64]hist.Bucket{}
	mergeBuckets(m, []hist.Bucket{{LoNs: 100, HiNs: 200, Count: 50}, {LoNs: 200, HiNs: 400, Count: 25}})
	mergeBuckets(m, []hist.Bucket{{LoNs: 200, HiNs: 400, Count: 25}})
	for q, want := range map[float64]float64{0.25: 150, 0.5: 200, 0.75: 300, 1: 400} {
		got, n := bucketQuantile(m, q)
		if n != 100 || !near(got, want) {
			t.Errorf("bucketQuantile(%v) = %v over %d, want %v over 100", q, got, n, want)
		}
	}
	if v, n := bucketQuantile(map[int64]hist.Bucket{}, 0.5); v != 0 || n != 0 {
		t.Errorf("empty histogram: %v over %d", v, n)
	}
}

// A span's self time is its duration minus what its children cover:
// overlapping children count once and a child is clipped to its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "worker", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "lock", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "barrier", Start: 20, End: 50},  // overlaps 2 by 10
		{ID: 4, Parent: 1, Name: "lock", Start: 90, End: 120},    // 20 outside the parent
		{ID: 5, Parent: 2, Name: "inner", Start: 12, End: 18},    // grandchild: not the worker's
		{ID: 6, Parent: 9, Name: "orphan", Start: 0, End: 1_000}, // other tree
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	ts := summarize(spans, "worker", 1)
	if ts.lockCalls != 2 || ts.barrierCalls != 1 || !near(ts.syncFrac, 0.5) || !near(ts.selfFrac, 0.5) {
		t.Errorf("summarize = %+v", ts)
	}
	// Sampled children stand for doSampling calls each.
	sampled := []span{
		{ID: 1, Name: "client", Start: 0, End: 6400},
		{ID: 2, Parent: 1, Name: "do", Start: 100, End: 150},
	}
	if ts := summarize(sampled, "client", doSampling); !near(ts.syncFrac, 0.5) {
		t.Errorf("sampled sync share = %v, want 0.5", ts.syncFrac)
	}
}

// The statistics digest must repeat exactly and tell passes apart.
func TestDigestStable(t *testing.T) {
	spec := harness.DefaultSpec("jacobi", harness.ScaleTest)
	spec.Procs = 2
	other := spec
	other.Protocol = core.LI
	digest := func(specs ...harness.Spec) uint64 {
		results, cellMs, _, err := runCells(specs, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return totals(results, cellMs).digest
	}
	a, b := digest(spec), digest(spec)
	if a != b {
		t.Errorf("digest of one cell changed between runs: %016x, %016x", a, b)
	}
	if c := digest(other); c == a {
		t.Errorf("LH and LI cells share digest %016x", a)
	}
	if c := digest(spec, other); c == a {
		t.Errorf("one-cell and two-cell passes share digest %016x", a)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the binary
// emits, and run it the way README.md says.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./cmd/dsmbench"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if want := []string{"cmd/dsmbench"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json   %+v\n binary %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json   %+v\n binary %+v", bj.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
