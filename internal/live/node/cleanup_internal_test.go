package node

import (
	"runtime"
	"testing"
	"time"
)

// cleanupWait bounds how long a test's cleanup waits for a closed
// node's goroutines to exit.
const cleanupWait = 10 * time.Second

// waitClosed is Wait for a test's cleanup: it gives up after
// cleanupWait and fails tb with every goroutine's stack, so a goroutine
// stuck past Close fails the test by its own message instead of hanging
// it until the package -timeout panic.
func waitClosed(tb testing.TB, nd *Node) {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		nd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(cleanupWait):
		buf := make([]byte, 1<<20)
		tb.Errorf("node %d still running %v after Close; goroutines:\n%s", nd.id, cleanupWait, buf[:runtime.Stack(buf, true)])
	}
}
