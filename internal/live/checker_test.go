package live

import (
	"sync/atomic"
	"testing"
	"time"

	"lrcdsm/internal/check"
	"lrcdsm/internal/core"
	"lrcdsm/internal/harness"
	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

// swallow is the invariant checker with one real event taken out: node
// 1's first TwinCreated, or its first IntervalClosed, never reaches it.
type swallow struct {
	*check.Checker
	event string
	done  atomic.Bool
}

func (s *swallow) drop(event string, n int) bool {
	return event == s.event && n == 1 && s.done.CompareAndSwap(false, true)
}

func (s *swallow) TwinCreated(n int, pg page.ID) {
	if !s.drop("TwinCreated", n) {
		s.Checker.TwinCreated(n, pg)
	}
}

func (s *swallow) IntervalClosed(n int, idx int32, vt vc.VC, pages []page.ID) {
	if !s.drop("IntervalClosed", n) {
		s.Checker.IntervalClosed(n, idx, vt, pages)
	}
}

// TestCheckerArmedOnLiveRun: the checker is wired to the live engine,
// not merely installed. A 2-node run with one of node 1's events
// swallowed must report the violation that event's absence implies: a
// write notice for a page the checker never saw twinned, or an interval
// index that skips one.
func TestCheckerArmedOnLiveRun(t *testing.T) {
	for _, tc := range []struct{ event, want string }{
		{"TwinCreated", "coverage"},
		{"IntervalClosed", "interval"},
	} {
		for _, prot := range []core.Protocol{core.LI, core.LH} {
			app, err := harness.NewApp("jacobi", harness.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			obs := &swallow{Checker: check.New(2), event: tc.event}
			c, err := New(Config{Nodes: 2, Protocol: prot, Observer: obs, RPCTimeout: 60 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			app.Configure(c)
			if _, err := c.Run(func(w core.Worker) { app.Worker(w) }); err != nil {
				t.Fatalf("%s/%v: %v", tc.event, prot, err)
			}
			if !obs.done.Load() {
				t.Fatalf("%s/%v: node 1 never emitted the event", tc.event, prot)
			}
			found := false
			for _, v := range obs.Violations() {
				found = found || (v.Kind == tc.want && v.Proc == 1)
			}
			if !found {
				t.Errorf("%s/%v: no %q violation on node 1 among %v", tc.event, prot, tc.want, obs.Violations())
			}
		}
	}
}
