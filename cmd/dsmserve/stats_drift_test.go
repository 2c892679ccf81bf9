package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lrcdsm/internal/live"
	"lrcdsm/internal/live/node"
	"lrcdsm/internal/serve/hist"
	"lrcdsm/internal/serve/loadgen"
)

// TestJSONReportCarriesEveryStatsCounter guards dsmserve's -json schema
// against counter drift, exactly as dsmd's twin test does: every field
// of node.Stats must carry a unique json tag and surface in the
// report's stats.total object — the serve counters (serve_gets,
// serve_puts) ride the same struct, so a counter
// added without a tag or dropped from the Snapshot copy list fails
// here. The serving-side extras (serve_hist, load.latency) must also
// survive the round trip.
func TestJSONReportCarriesEveryStatsCounter(t *testing.T) {
	var total node.Stats
	rv := reflect.ValueOf(&total).Elem()
	typ := rv.Type()
	tags := make(map[string]string, typ.NumField()) // json tag -> field name
	for i := 0; i < typ.NumField(); i++ {
		tag := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			t.Errorf("Stats field %s has no json tag; it would vanish from dsmserve -json", typ.Field(i).Name)
			continue
		}
		if prev, dup := tags[tag]; dup {
			t.Errorf("Stats fields %s and %s share json tag %q", prev, typ.Field(i).Name, tag)
		}
		tags[tag] = typ.Field(i).Name
		rv.Field(i).SetInt(int64(i + 1))
	}

	var h hist.Hist
	h.Record(1000)
	rep := serveReport{
		Nodes: 2, Protocol: "LH", Transport: "inproc", Route: "affinity",
		Keys: 64, KeysPerPage: 8, Shards: 4, ServeWorkers: 2,
		Load: &loadgen.Result{
			Mix: loadgen.Mix{Name: "probe", ReadFrac: 0.5, Dist: "uniform"},
			Ops: 1, Latency: h.Summarize(),
		},
		ServeHist: h.Summarize(),
		Stats:     &live.Stats{PerNode: []node.Stats{total}, Total: total},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ServeHist map[string]any `json:"serve_hist"`
		Load      struct {
			Latency map[string]any `json:"latency"`
		} `json:"load"`
		Stats struct {
			Total map[string]any `json:"total"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < typ.NumField(); i++ {
		tag := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		v, ok := got.Stats.Total[tag]
		if !ok {
			t.Errorf("counter %s (json %q) missing from stats.total in dsmserve -json output", typ.Field(i).Name, tag)
			continue
		}
		if f, ok := v.(float64); !ok || int64(f) != int64(i+1) {
			t.Errorf("counter %s (json %q) = %v in report, want %d", typ.Field(i).Name, tag, v, i+1)
		}
	}

	for _, probe := range []struct {
		name string
		m    map[string]any
	}{
		{"serve_hist", got.ServeHist},
		{"load.latency", got.Load.Latency},
	} {
		if probe.m == nil {
			t.Errorf("%s missing from dsmserve -json output", probe.name)
			continue
		}
		for _, q := range []string{"count", "p50_ns", "p99_ns", "p999_ns"} {
			if _, ok := probe.m[q]; !ok {
				t.Errorf("%s lacks quantile %q", probe.name, q)
			}
		}
	}
}
