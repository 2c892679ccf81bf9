package live

import (
	"testing"
	"time"

	"lrcdsm/internal/check"
	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/live/transport"
)

// TestTCPLoopbackSmoke runs a small Jacobi on a 2-node cluster over real
// TCP loopback sockets and compares the result regions against a 1-node
// in-process reference.
func TestTCPLoopbackSmoke(t *testing.T) {
	if stats := runTCPAgainstReference(t, "jacobi", core.LH, 2); stats != nil && stats.Total.BytesSent == 0 {
		t.Error("TCP run moved no bytes")
	}
}

// TestCholeskyTCPFourNodes runs cholesky on four TCP nodes, where every
// node's frames are handled on three connection readers at once and
// flush acks ride lock traffic among all of them, against the 1-node
// reference.
func TestCholeskyTCPFourNodes(t *testing.T) {
	if stats := runTCPAgainstReference(t, "cholesky", core.LH, 4); stats != nil && stats.Total.AcksCarried == 0 {
		t.Error("no flush ack rode another frame")
	}
}

// runTCPAgainstReference runs app on an n-node TCP loopback cluster and
// compares its result regions with a 1-node in-process run, returning
// the TCP run's stats (nil if it failed). A hard timeout turns a wedged
// protocol into a test failure instead of a hung suite.
func runTCPAgainstReference(t *testing.T, name string, prot core.Protocol, nodes int) *Stats {
	t.Helper()
	done := make(chan *Stats, 1)
	go func() {
		var stats *Stats
		defer func() { done <- stats }()
		nw, err := transport.NewTCPLoopbackNet(nodes, transport.TCPOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		got, st := runApp(t, name, prot, nodes, nw)
		if t.Failed() {
			return
		}
		ref, _ := runApp(t, name, prot, 1, nil)
		app, err := harness.NewApp(name, harness.ScaleTest)
		if err != nil {
			t.Error(err)
			return
		}
		ra := app.(harness.ResultApp)
		for _, v := range check.CompareRegions(got, ref, ra.ResultRegions()) {
			t.Errorf("region mismatch over TCP: %s", v.String())
		}
		stats = st
	}()
	select {
	case stats := <-done:
		return stats
	case <-time.After(120 * time.Second):
		t.Fatalf("%s over TCP exceeded hard timeout", name)
		return nil
	}
}
