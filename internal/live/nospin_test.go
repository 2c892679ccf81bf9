package live

import (
	"testing"

	"lrcdsm/internal/core"
)

// TestCholeskyDoesNotSpin counts what a waiting worker does instead of
// timing it. Cholesky's idle worker polls the task queue under a lock its
// node usually owns, so every futile poll is a zero-message local
// acquire. A worker that parks in Backoff until a frame arrives adds one
// poll per park to the acquires the work itself needs — what a one-node
// run makes — while one that spins through them makes ten to hundreds of
// times as many. (The share of local acquires says nothing: a run in
// which one node takes nearly every task is as local as the one-node
// run.)
func TestCholeskyDoesNotSpin(t *testing.T) {
	for _, prot := range []core.Protocol{core.LI, core.LH} {
		t.Run(prot.String(), func(t *testing.T) {
			_, ref := runApp(t, "cholesky", prot, 1, nil)
			_, st := runApp(t, "cholesky", prot, 2, nil)
			t.Logf("%d acquires (%d local), one node: %d; %d parks (%d ended by the backstop)",
				st.Total.LockAcquires, st.Total.LockLocalAcquires, ref.Total.LockAcquires,
				st.Total.BackoffParks, st.Total.BackoffTimeouts)
			if st.Total.LockAcquires > 2*ref.Total.LockAcquires {
				t.Errorf("%d acquires where one node needs %d: the idle worker spins",
					st.Total.LockAcquires, ref.Total.LockAcquires)
			}
		})
	}
}
