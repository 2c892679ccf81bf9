package main

import "testing"

// TestDurableNeedsRecovery: -durable acknowledges an op only once a
// checkpoint covers it, so it is refused wherever the run would take
// none — without -recover, or with no restart budget.
func TestDurableNeedsRecovery(t *testing.T) {
	for _, tc := range []struct {
		durable, recoverRun bool
		maxRestarts         int
		ok                  bool
	}{
		{durable: true, recoverRun: true, maxRestarts: 3, ok: true},
		{durable: true, recoverRun: false, maxRestarts: 3, ok: false},
		{durable: true, recoverRun: true, maxRestarts: 0, ok: false},
		{durable: false, recoverRun: false, maxRestarts: 3, ok: true},
		{durable: false, recoverRun: true, maxRestarts: 0, ok: true},
	} {
		err := checkFlags(tc.durable, tc.recoverRun, tc.maxRestarts)
		if (err == nil) != tc.ok {
			t.Errorf("durable=%v recover=%v max-restarts=%d: got %v, want ok=%v",
				tc.durable, tc.recoverRun, tc.maxRestarts, err, tc.ok)
		}
	}
}
