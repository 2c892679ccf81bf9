package check

// Deliberately broken event sequences proving each invariant fires, plus
// well-formed sequences proving the checker stays quiet on legal runs.

import (
	"strings"
	"testing"

	"lrcdsm/internal/core"
	"lrcdsm/internal/page"
	"lrcdsm/internal/vc"
)

func mkVC(vals ...int32) vc.VC {
	v := vc.New(len(vals))
	for i, x := range vals {
		v.Set(i, x)
	}
	return v
}

// kinds extracts the violation kinds detected so far.
func kinds(c *Checker) []string {
	var out []string
	for _, v := range c.Violations() {
		out = append(out, v.Kind)
	}
	return out
}

func wantKind(t *testing.T, c *Checker, kind string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Kind == kind {
			if v.String() == "" {
				t.Fatalf("violation of kind %q has empty rendering", kind)
			}
			return
		}
	}
	t.Fatalf("no %q violation fired; got %v", kind, kinds(c))
}

func wantClean(t *testing.T, c *Checker) {
	t.Helper()
	if n := c.Count(); n != 0 {
		t.Fatalf("expected clean run, got %d violations: %v", n, c.Violations())
	}
}

func TestClockRegressionFires(t *testing.T) {
	c := New(2)
	c.ClockAdvanced(0, mkVC(3, 2))
	c.ClockAdvanced(0, mkVC(3, 1)) // slot 1 regressed
	wantKind(t, c, "clock")
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("Err() = %v, want a clock-regression summary", err)
	}
}

func TestClockMonotoneStaysQuiet(t *testing.T) {
	c := New(2)
	c.ClockAdvanced(0, mkVC(1, 0))
	c.ClockAdvanced(0, mkVC(1, 4))
	c.ClockAdvanced(0, mkVC(2, 4))
	wantClean(t, c)
}

func TestIntervalIndexGapFires(t *testing.T) {
	c := New(2)
	c.TwinCreated(0, 7)
	c.IntervalClosed(0, 1, mkVC(1, 0), []page.ID{7})
	c.TwinCreated(0, 7)
	c.IntervalClosed(0, 3, mkVC(3, 0), []page.ID{7}) // skipped interval 2
	wantKind(t, c, "interval")
}

func TestIntervalOwnSlotMismatchFires(t *testing.T) {
	c := New(2)
	c.TwinCreated(0, 7)
	c.IntervalClosed(0, 1, mkVC(2, 0), []page.ID{7}) // own slot says 2, idx is 1
	wantKind(t, c, "clock")
}

func TestUncoveredTwinFires(t *testing.T) {
	c := New(2)
	c.TwinCreated(0, 7)
	c.TwinCreated(0, 8)
	// Interval closes covering only page 7: the twinned page 8 has no
	// write notice, so its modifications would be lost.
	c.IntervalClosed(0, 1, mkVC(1, 0), []page.ID{7})
	wantKind(t, c, "coverage")
}

func TestPhantomNoticeFires(t *testing.T) {
	c := New(2)
	c.TwinCreated(0, 7)
	// Write notice for page 9, which was never twinned.
	c.IntervalClosed(0, 1, mkVC(1, 0), []page.ID{7, 9})
	wantKind(t, c, "coverage")
}

func TestEagerUncoveredTwinFires(t *testing.T) {
	c := New(2)
	c.TwinCreated(1, 7)
	c.TwinCreated(1, 8)
	c.EagerFlushed(1, 1, []page.ID{7}) // page 8 dropped
	wantKind(t, c, "coverage")
}

func TestEagerEpochOrderFires(t *testing.T) {
	c := New(2)
	c.EagerFlushed(1, 2, nil)
	c.EagerFlushed(1, 1, nil) // epoch going backwards
	wantKind(t, c, "interval")
}

// TestHappenedBeforeViolationFires applies a later interval of one writer
// while its predecessor on the same page — within the applier's own
// vector time — has not been incorporated. A diff that arrives without
// its vector time (a live one) is held to the interval's recorded one.
func TestHappenedBeforeViolationFires(t *testing.T) {
	for _, vt := range []vc.VC{mkVC(2, 0), nil} {
		c := New(2)
		// Writer 0 closes two intervals, both writing page 3.
		c.TwinCreated(0, 3)
		c.IntervalClosed(0, 1, mkVC(1, 0), []page.ID{3})
		c.TwinCreated(0, 3)
		c.IntervalClosed(0, 2, mkVC(2, 0), []page.ID{3})
		// Proc 1 acquires knowledge of both (vector time covers interval 2)...
		c.ClockAdvanced(1, mkVC(2, 1))
		// ...then applies (0,2) without ever applying (0,1).
		c.DiffApplied(1, 3, 0, 2, vt)
		wantKind(t, c, "hb")
	}
}

// TestDiffOfUnclosedIntervalFires: a diff without its vector time, of an
// interval the checker never saw close, reached a peer before the
// observer had the interval.
func TestDiffOfUnclosedIntervalFires(t *testing.T) {
	c := New(2)
	c.ClockAdvanced(1, mkVC(0, 1))
	c.DiffApplied(1, 3, 0, 1, nil)
	wantKind(t, c, "hb")
}

// TestWriteThenAcquireOrder: proc 0 dirties page 3, then acquires a
// notice of proc 1's interval of page 3 without touching the page again,
// so its interval's vector time covers (1,1) but its diff depends on
// nothing in it, and home 2 may apply the two diffs in either order.
// Once proc 0's copy has adopted (1,1) — a re-fetch from the home, after
// which a write needs no new twin — its diff does depend on (1,1), and
// applying it first is a violation.
func TestWriteThenAcquireOrder(t *testing.T) {
	for _, refetch := range []bool{false, true} {
		c := New(3)
		c.TwinCreated(0, 3)
		c.TwinCreated(1, 3)
		c.IntervalClosed(1, 1, mkVC(0, 1, 0), []page.ID{3})
		c.ClockAdvanced(0, mkVC(0, 1, 0))
		if refetch {
			c.CopyAdopted(0, 3, []int32{0, 1, 0}, nil)
		}
		c.IntervalClosed(0, 1, mkVC(1, 1, 0), []page.ID{3})
		c.ClockAdvanced(2, mkVC(1, 1, 0))
		c.DiffApplied(2, 3, 0, 1, nil)
		if refetch {
			wantKind(t, c, "hb")
			continue
		}
		c.DiffApplied(2, 3, 1, 1, nil)
		wantClean(t, c)
	}
}

func TestHappenedBeforeInOrderStaysQuiet(t *testing.T) {
	c := New(2)
	c.TwinCreated(0, 3)
	c.IntervalClosed(0, 1, mkVC(1, 0), []page.ID{3})
	c.TwinCreated(0, 3)
	c.IntervalClosed(0, 2, mkVC(2, 0), []page.ID{3})
	c.ClockAdvanced(1, mkVC(2, 1))
	c.DiffApplied(1, 3, 0, 1, mkVC(1, 0))
	c.DiffApplied(1, 3, 0, 2, mkVC(2, 0))
	wantClean(t, c)
}

// TestEarlyUpdatePushStaysQuiet mirrors the LH/LU update push: a diff
// arrives ahead of the receiver's vector time, so missing predecessors
// the receiver has never heard of carry no obligation.
func TestEarlyUpdatePushStaysQuiet(t *testing.T) {
	c := New(2)
	c.TwinCreated(0, 3)
	c.IntervalClosed(0, 1, mkVC(1, 0), []page.ID{3})
	c.TwinCreated(0, 3)
	c.IntervalClosed(0, 2, mkVC(2, 0), []page.ID{3})
	// Proc 1's clock has never advanced past writer 0's interval 0: the
	// pushed diff of (0,2) imposes no ordering obligation.
	c.ClockAdvanced(1, mkVC(0, 1))
	c.DiffApplied(1, 3, 0, 2, mkVC(2, 0))
	wantClean(t, c)
}

// TestAdoptionSatisfiesPredecessors mirrors a page fetch: the adopted
// image's copy timestamp covers old intervals, so applying a successor
// straight after is legal.
func TestAdoptionSatisfiesPredecessors(t *testing.T) {
	c := New(2)
	c.TwinCreated(0, 3)
	c.IntervalClosed(0, 1, mkVC(1, 0), []page.ID{3})
	c.TwinCreated(0, 3)
	c.IntervalClosed(0, 2, mkVC(2, 0), []page.ID{3})
	c.ClockAdvanced(1, mkVC(2, 1))
	c.CopyAdopted(1, 3, []int32{1, 0}, mkVC(1, 0))
	c.DiffApplied(1, 3, 0, 2, mkVC(2, 0))
	wantClean(t, c)
}

func TestBarrierEpisodeOrderFires(t *testing.T) {
	c := New(2)
	c.BarrierDeparted(0, 1, mkVC(1, 1))
	c.BarrierDeparted(0, 3, mkVC(2, 2)) // skipped episode 2
	wantKind(t, c, "episode")
}

func TestBarrierEpisodeVTMismatchFires(t *testing.T) {
	c := New(2)
	c.BarrierDeparted(0, 1, mkVC(1, 1))
	c.BarrierDeparted(1, 1, mkVC(1, 2)) // different merged time, same episode
	wantKind(t, c, "episode")
}

func TestBarrierConsistentStaysQuiet(t *testing.T) {
	c := New(2)
	c.BarrierDeparted(0, 1, mkVC(1, 1))
	c.BarrierDeparted(1, 1, mkVC(1, 1))
	// Eager protocols depart with a zero vector time; that is legal.
	ce := New(2)
	ce.BarrierDeparted(0, 1, mkVC(0, 0))
	ce.BarrierDeparted(1, 1, mkVC(0, 0))
	wantClean(t, c)
	wantClean(t, ce)
}

// newMemSystem builds a minimal 1-processor system for memory-comparison
// tests.
func newMemSystem(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Procs = 1
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompareRegionsExactMismatchFires(t *testing.T) {
	got, want := newMemSystem(t), newMemSystem(t)
	a := got.AllocPage(64)
	if b := want.AllocPage(64); b != a {
		t.Fatalf("allocation addresses diverge: %v vs %v", a, b)
	}
	got.InitI64(a, 41)
	want.InitI64(a, 42)
	vs := CompareRegions(got, want, []core.ResultRegion{{Name: "r", Base: a, Words: 1}})
	if len(vs) != 1 || vs[0].Kind != "memory" {
		t.Fatalf("CompareRegions = %v, want one memory violation", vs)
	}
	if !strings.Contains(vs[0].Detail, `region "r"`) {
		t.Fatalf("violation lacks region context: %s", vs[0].Detail)
	}
}

func TestCompareRegionsFloatTolerance(t *testing.T) {
	got, want := newMemSystem(t), newMemSystem(t)
	a := got.AllocPage(64)
	want.AllocPage(64)
	// Within 1e-9 relative: no violation for a Float region, but a
	// violation for an exact region.
	got.InitF64(a, 1.0)
	want.InitF64(a, 1.0+1e-12)
	// Beyond tolerance in the second word: always a violation.
	got.InitF64(a+8, 1.0)
	want.InitF64(a+8, 1.001)
	float := []core.ResultRegion{{Name: "f", Base: a, Words: 2, Float: true}}
	if vs := CompareRegions(got, want, float); len(vs) != 1 {
		t.Fatalf("float region: %d violations (%v), want 1", len(vs), vs)
	}
	exact := []core.ResultRegion{{Name: "e", Base: a, Words: 2}}
	if vs := CompareRegions(got, want, exact); len(vs) != 2 {
		t.Fatalf("exact region: %d violations (%v), want 2", len(vs), vs)
	}
}

func TestViolationCapAndCount(t *testing.T) {
	c := New(2)
	for i := 0; i < 250; i++ {
		c.EagerFlushed(1, 1, nil) // epoch never increases: fires every time
	}
	if got := c.Count(); got != 249 {
		t.Fatalf("Count() = %d, want 249", got)
	}
	if got := len(c.Violations()); got != 100 {
		t.Fatalf("len(Violations()) = %d, want the 100-entry cap", got)
	}
}
