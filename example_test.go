package lrcdsm_test

import (
	"fmt"

	"lrcdsm"
)

// A lock-protected shared counter on a 4-processor DSM under the lazy
// hybrid protocol: the canonical release-consistency pattern.
func Example() {
	cfg := lrcdsm.DefaultConfig()
	cfg.Protocol = lrcdsm.LH
	cfg.Procs = 4

	sys, err := lrcdsm.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	counter := sys.Alloc(8)
	lock := sys.NewLock()

	_, err = sys.Run(func(p *lrcdsm.Proc) {
		for i := 0; i < 100; i++ {
			p.Lock(lock)
			p.WriteI64(counter, p.ReadI64(counter)+1)
			p.Unlock(lock)
			p.Compute(5000)
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(sys.PeekI64(counter))
	// Output: 400
}

// countingObserver tallies two protocol events; the remaining hooks are
// no-ops. Any type with the Observer methods can be attached via
// Config.Observer — no internal packages required.
type countingObserver struct {
	intervals, diffs int
}

func (o *countingObserver) TwinCreated(int, lrcdsm.PageID)                        {}
func (o *countingObserver) IntervalClosed(int, int32, lrcdsm.VC, []lrcdsm.PageID) { o.intervals++ }
func (o *countingObserver) EagerFlushed(int, int32, []lrcdsm.PageID)              {}
func (o *countingObserver) ClockAdvanced(int, lrcdsm.VC)                          {}
func (o *countingObserver) DiffApplied(int, lrcdsm.PageID, int, int32, lrcdsm.VC) {}
func (o *countingObserver) CopyAdopted(proc int, pg lrcdsm.PageID, _ []int32, _ lrcdsm.VC) {
	o.diffs++
}
func (o *countingObserver) BarrierDeparted(int, int64, lrcdsm.VC) {}

// Instrumenting a run: an Observer receives protocol events as they
// happen, and a bounded trace log records them for post-run inspection.
func ExampleObserver() {
	cfg := lrcdsm.DefaultConfig()
	cfg.Protocol = lrcdsm.LI
	cfg.Procs = 2
	cfg.TraceCapacity = 4096
	obs := &countingObserver{}
	cfg.Observer = obs

	sys, err := lrcdsm.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	counter := sys.Alloc(8)
	lock := sys.NewLock()
	_, err = sys.Run(func(p *lrcdsm.Proc) {
		for i := 0; i < 10; i++ {
			p.Lock(lock)
			p.WriteI64(counter, p.ReadI64(counter)+1)
			p.Unlock(lock)
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("intervals observed:", obs.intervals > 0)
	fmt.Println("copies adopted:", obs.diffs > 0)
	fmt.Println("trace captured events:", len(sys.Trace().Events()) > 0)
	// Output:
	// intervals observed: true
	// copies adopted: true
	// trace captured events: true
}

// Barrier-synchronized phases: processor 0's writes become visible to
// every processor after the barrier, under any of the five protocols.
func ExampleProc_Barrier() {
	cfg := lrcdsm.DefaultConfig()
	cfg.Protocol = lrcdsm.EI
	cfg.Procs = 3

	sys, err := lrcdsm.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	data := sys.AllocPage(8)
	bar := sys.NewBarrier()

	_, err = sys.Run(func(p *lrcdsm.Proc) {
		if p.ID() == 0 {
			p.WriteF64(data, 42)
		}
		p.Barrier(bar)
		if p.ReadF64(data) != 42 {
			panic("stale read after barrier")
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("all processors observed the write")
	// Output: all processors observed the write
}
