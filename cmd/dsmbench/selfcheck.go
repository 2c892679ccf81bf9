package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck runs every workload k times, each in a fresh process with
// its own seed, and prints per workload x end-to-end metric the median,
// the quartiles, their distance as a share of the median (the spread the
// benchmark driver computes) and (max-min)/median. It fails if a spread
// exceeds a third of the metric's bound, or an operation failed. setup_s
// is exempt from the spread rule, as it is in the driver's.
func runSelfcheck(k int, seed int64, seconds float64) error {
	if k < 2 {
		return fmt.Errorf("-k %d: a spread needs at least 2 runs", k)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	printEnv()
	var bad []string
	for _, w := range workloads {
		cols := map[string][]float64{}
		for i := 0; i < k; i++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %w", w.name, i, err)
			}
			if !res.Correct || res.Failed != 0 {
				bad = append(bad, fmt.Sprintf("%s run %d: %d of %d operations failed", w.name, i, res.Failed, res.Attempted))
			}
			for name, m := range res.Metrics {
				cols[name] = append(cols[name], m.Value)
			}
		}
		fmt.Printf("%s (%d runs)\n  %-14s %14s %14s %14s %8s %8s  %s\n", w.name, k,
			"metric", "median", "q1", "q3", "iqr/med", "rng/med", "limit")
		for _, d := range endToEnd {
			xs := cols[d.Name]
			q1, q2, q3 := quartiles(xs)
			s := sorted(xs)
			rng := (s[len(s)-1] - s[0]) / q2
			limit := d.Bound / 3
			verdict := "ok"
			if d.Name != "setup_s" && spread(xs) > limit {
				verdict = "TOO NOISY"
				bad = append(bad, fmt.Sprintf("%s %s: spread %.3f exceeds %.3f", w.name, d.Name, spread(xs), limit))
			}
			fmt.Printf("  %-14s %14.4f %14.4f %14.4f %8.4f %8.4f  %.3f %s\n",
				d.Name, q2, q1, q3, spread(xs), rng, limit, verdict)
		}
	}
	for _, b := range bad {
		fmt.Println("selfcheck:", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed: %d finding(s)", len(bad))
	}
	return nil
}
