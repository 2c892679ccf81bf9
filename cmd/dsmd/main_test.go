package main

import (
	"encoding/json"
	"testing"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/chaos"
)

// TestJSONReportSurfacesFaultCounters runs jacobi under injected frame
// drops and checks the -json report schema carries the robustness
// counters: retransmissions and duplicate requests in stats.total, and
// the chaos block with the injected-fault tally.
func TestJSONReportSurfacesFaultCounters(t *testing.T) {
	scale, err := harness.ParseScale("test")
	if err != nil {
		t.Fatal(err)
	}
	opts := runOpts{
		timeout:   30 * time.Second,
		retryBase: 5 * time.Millisecond,
		chaos:     &chaos.Config{Seed: 42, DropP: 0.15},
	}
	_, stats, faults, err := runLive("jacobi", scale, core.LH, 2, "inproc", opts)
	if err != nil {
		t.Fatalf("chaotic run failed: %v", err)
	}

	rep := runReport{App: "jacobi", Scale: "test", Transport: "inproc", ChaosSeed: 42, Chaos: faults, Stats: stats}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ChaosSeed int64 `json:"chaos_seed"`
		Chaos     *struct {
			Dropped int64 `json:"dropped"`
		} `json:"chaos"`
		Stats struct {
			Total struct {
				RPCRetries  int64 `json:"rpc_retries"`
				DupRequests int64 `json:"dup_requests"`
			} `json:"total"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.ChaosSeed != 42 {
		t.Errorf("chaos_seed = %d, want 42", got.ChaosSeed)
	}
	if got.Chaos == nil || got.Chaos.Dropped == 0 {
		t.Errorf("chaos.dropped missing or zero in %s", raw)
	}
	if got.Stats.Total.RPCRetries == 0 {
		t.Errorf("rpc_retries = 0 after %d dropped frames", got.Chaos.Dropped)
	}
}

// TestFaultFreeRunReportsZeroFaultCounters pins the invariant the
// robustness counters promise: all zero on a healthy network.
func TestFaultFreeRunReportsZeroFaultCounters(t *testing.T) {
	scale, err := harness.ParseScale("test")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, faults, err := runLive("jacobi", scale, core.LH, 2, "inproc", runOpts{timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		t.Errorf("fault counters reported without chaos: %+v", faults)
	}
	if n := stats.Total.RPCRetries + stats.Total.DupRequests + stats.Total.DupReplies; n != 0 {
		t.Errorf("retry/dup counters = %d on a fault-free run, want 0", n)
	}
}

func TestParsePartition(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want chaos.Partition
		ok   bool
	}{
		{"0:3", chaos.Partition{A: 0, B: 3}, true},
		{"1:2:50ms", chaos.Partition{A: 1, B: 2, From: 50 * time.Millisecond}, true},
		{"0:1:10ms:200ms", chaos.Partition{A: 0, B: 1, From: 10 * time.Millisecond, Dur: 200 * time.Millisecond}, true},
		{"3", chaos.Partition{}, false},
		{"2:2", chaos.Partition{}, false},
		{"0:1:nope", chaos.Partition{}, false},
	} {
		got, err := parsePartition(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parsePartition(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parsePartition(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
