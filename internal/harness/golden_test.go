package harness

import (
	"fmt"
	"hash/fnv"
	"testing"

	"lrcdsm/internal/core"
)

// goldenStatsDigest is the FNV-1a hash of every cell's RunStats in
// TestGoldenStatsDigest's grid. It changes only when the simulated
// machine does (its cost model, a protocol's messages or an app's
// accesses); a host-cost change to the simulator must leave it alone.
const goldenStatsDigest = 0x63200ab949744496

// TestGoldenStatsDigest pins the simulated statistics of every app under
// every protocol at test scale, on 1 and 4 processors, to one constant:
// a change meant to be invisible to the simulation passes it unchanged.
func TestGoldenStatsDigest(t *testing.T) {
	h := fnv.New64a()
	for _, app := range AppNames {
		for _, prot := range core.Protocols {
			for _, procs := range []int{1, 4} {
				spec := DefaultSpec(app, ScaleTest)
				spec.Protocol = prot
				spec.Procs = procs
				res, err := Run(spec)
				if err != nil {
					t.Fatalf("%s/%v/%dp: %v", app, prot, procs, err)
				}
				fmt.Fprintf(h, "%s/%v/%d %+v\n", app, prot, procs, *res.Stats)
			}
		}
	}
	if got := h.Sum64(); got != goldenStatsDigest {
		t.Fatalf("simulated statistics digest %#x, want %#x", got, uint64(goldenStatsDigest))
	}
}
