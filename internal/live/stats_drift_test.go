package live

import (
	"reflect"
	"testing"

	"lrcdsm/internal/live/node"
)

// TestAddStatsAccumulatesEveryCounter guards the sum in node.Stats.Add,
// which cluster totals (and dsmd -json) are built from, against drift: a
// counter added to node.Stats — like the consensus_terms/elections/commits
// and leader_redirects counters the replicated control plane reports —
// that Add skipped would silently vanish from them. Every field gets a
// distinct nonzero value; the accumulated total must carry all of them.
func TestAddStatsAccumulatesEveryCounter(t *testing.T) {
	var src node.Stats
	rv := reflect.ValueOf(&src).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.Int64, reflect.Int:
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("node.Stats field %s has kind %s; extend this test for it",
				rv.Type().Field(i).Name, f.Kind())
		}
	}
	var dst node.Stats
	dst.Add(&src)
	dst.Add(&src)
	dv := reflect.ValueOf(&dst).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type().Field(i).Name == "Node" {
			continue // identity, not a counter — totals keep their own
		}
		if got, want := dv.Field(i).Int(), 2*rv.Field(i).Int(); got != want {
			t.Errorf("Stats.Add drops %s: got %d, want %d (add it to the sum)",
				rv.Type().Field(i).Name, got, want)
		}
	}
}
