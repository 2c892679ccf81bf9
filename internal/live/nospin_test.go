package live

import (
	"testing"

	"lrcdsm/internal/core"
)

// TestCholeskyDoesNotSpin counts what a waiting worker does instead of
// timing it. Cholesky's idle worker polls the task queue under a lock its
// node usually owns, so every futile poll is a zero-message local
// acquire; a worker that spins through them makes tens to hundreds of
// local acquires per remote one, while one that parks in Backoff until a
// frame arrives makes about as many local acquires as remote ones.
func TestCholeskyDoesNotSpin(t *testing.T) {
	for _, prot := range []core.Protocol{core.LI, core.LH} {
		t.Run(prot.String(), func(t *testing.T) {
			_, st := runApp(t, "cholesky", prot, 2, nil)
			local := st.Total.LockLocalAcquires
			remote := st.Total.LockAcquires - local
			t.Logf("%d local acquires, %d remote, %d parks (%d ended by the backstop)",
				local, remote, st.Total.BackoffParks, st.Total.BackoffTimeouts)
			if local > 4*remote {
				t.Errorf("%d local acquires for %d remote ones: the idle worker spins", local, remote)
			}
		})
	}
}
