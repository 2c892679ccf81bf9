package sim

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestSingleProcRunsToCompletion(t *testing.T) {
	e := New(1)
	ran := false
	err := e.Run(func(p *Proc) {
		p.Advance(100)
		ran = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if e.Procs()[0].Clock() != 100 {
		t.Errorf("clock = %d, want 100", e.Procs()[0].Clock())
	}
}

func TestInteractOrdersByTimestamp(t *testing.T) {
	e := New(3)
	var order []int
	err := e.Run(func(p *Proc) {
		// proc 0 interacts at t=30, proc 1 at t=10, proc 2 at t=20
		p.Advance(Time(30 - 10*p.ID))
		p.Interact()
		order = append(order, p.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New(1)
	var got []Time
	err := e.Run(func(p *Proc) {
		e.Schedule(50, func() { got = append(got, 50) })
		e.Schedule(10, func() { got = append(got, 10) })
		e.Schedule(30, func() { got = append(got, 30) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 30 || got[2] != 50 {
		t.Fatalf("event order = %v", got)
	}
}

func TestEventTiesAreFIFO(t *testing.T) {
	e := New(1)
	var got []int
	err := e.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(7, func() { got = append(got, i) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

// record is a typed event that appends its tag to a shared log.
type record struct {
	log *[]int
	tag int
}

func (r *record) Fire() { *r.log = append(*r.log, r.tag) }

// TestPostAndScheduleShareOrder: Post and Schedule draw on one sequence
// counter, so events due at the same time fire in call order whichever
// way they were enqueued.
func TestPostAndScheduleShareOrder(t *testing.T) {
	e := New(1)
	var got []int
	err := e.Run(func(p *Proc) {
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				e.Post(7, &record{log: &got, tag: i})
			} else {
				i := i
				e.Schedule(7, func() { got = append(got, i) })
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("fired %v, want 6 events", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("Post and Schedule ties out of call order: %v", got)
		}
	}
}

func TestBlockAndWake(t *testing.T) {
	e := New(2)
	err := e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Block()
			if p.Clock() != 500 {
				t.Errorf("woken clock = %d, want 500", p.Clock())
			}
		} else {
			p.Advance(100)
			p.Interact()
			waker := e.Procs()[0]
			e.Schedule(500, func() { waker.Wake(500) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New(1)
	err := e.Run(func(p *Proc) { p.Block() })
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	e := New(2)
	_ = e.Run(func(p *Proc) {
		if p.ID == 1 {
			panic("boom")
		}
		p.Advance(10)
	})
	t.Fatal("expected panic")
}

func TestWakeNeverMovesClockBackward(t *testing.T) {
	e := New(2)
	err := e.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Advance(1000)
			p.Interact()
			p.Block() // blocks at t=1000
			if p.Clock() < 1000 {
				t.Errorf("clock moved backward: %d", p.Clock())
			}
		} else {
			p.Advance(1)
			p.Interact()
			target := e.Procs()[0]
			// Wake scheduled long after proc 0 blocks.
			e.Schedule(2000, func() { target.Wake(5) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := e.Procs()[0].Clock(); c < 2000 {
		t.Errorf("woken clock %d should be >= event time 2000", c)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := New(4)
		var order []int
		_ = e.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Advance(Time(1 + (p.ID*7+i*3)%5))
				p.Interact()
				order = append(order, p.ID)
			}
		})
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestOnlyOneProcRunsAtATime(t *testing.T) {
	e := New(8)
	var running int32
	err := e.Run(func(p *Proc) {
		for i := 0; i < 50; i++ {
			if atomic.AddInt32(&running, 1) != 1 {
				t.Error("two processors running concurrently")
			}
			p.Advance(1)
			atomic.AddInt32(&running, -1)
			p.Interact()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScheduleInPastRunsNow(t *testing.T) {
	e := New(1)
	var at Time = -1
	err := e.Run(func(p *Proc) {
		p.Advance(100)
		p.Interact()
		e.Schedule(10, func() { at = e.Now() }) // in the past relative to t=100
	})
	if err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Errorf("past event ran at %d, want 100", at)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := New(1)
	_ = e.Run(func(p *Proc) { p.Advance(-1) })
}

// TestScheduleDispatchNoAlloc proves the event free-list: once warm, a
// schedule/dispatch cycle allocates no event structs, and neither does
// posting a typed event.
func TestScheduleDispatchNoAlloc(t *testing.T) {
	fn, ev := func() {}, &tick{}
	for _, tc := range []struct {
		name string
		add  func(e *Engine)
	}{
		{"Schedule", func(e *Engine) { e.Schedule(e.Now(), fn) }},
		{"Post", func(e *Engine) { e.Post(e.Now(), ev) }},
	} {
		e := New(0)
		// Warm the free list with as many events as one round keeps in flight.
		for i := 0; i < 100; i++ {
			tc.add(e)
		}
		e.next()
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < 100; i++ {
				tc.add(e)
			}
			e.next()
		})
		if avg > 0 {
			t.Fatalf("%s/dispatch allocates %.1f objects per 100 events, want 0", tc.name, avg)
		}
	}
}

// TestEventPoolClearsClosure checks that recycling an event drops its
// callback or typed event, so pooled events cannot pin captured state.
func TestEventPoolClearsClosure(t *testing.T) {
	e := New(0)
	big := make([]byte, 1)
	e.Schedule(0, func() { big[0]++ })
	e.Post(0, &tick{})
	e.next()
	if len(e.free) != 2 {
		t.Fatalf("%d dispatched events recycled, want 2", len(e.free))
	}
	for _, ev := range e.free {
		if ev.ev != nil {
			t.Fatal("recycled event still holds its callback")
		}
	}
}

// TestReadyHeapMatchesLinearScan cross-checks heap dispatch against the
// reference policy it replaced: smallest clock first, ties to the lowest
// processor ID.
func TestReadyHeapMatchesLinearScan(t *testing.T) {
	const (
		nProc = 5
		iters = 20
	)
	adv := func(id, i int) Time { return Time(1 + (id*3+i*5)%4) } // frequent ties
	e := New(nProc)
	var order []int
	err := e.Run(func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Advance(adv(p.ID, i))
			p.Interact()
			order = append(order, p.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a linear scan over processor clocks, strict < so the
	// lowest ID wins ties.
	clocks := make([]Time, nProc)
	done := make([]int, nProc)
	for i := range clocks {
		clocks[i] = adv(i, 0)
	}
	var want []int
	for len(want) < nProc*iters {
		best := -1
		for i := 0; i < nProc; i++ {
			if done[i] < iters && (best == -1 || clocks[i] < clocks[best]) {
				best = i
			}
		}
		want = append(want, best)
		done[best]++
		if done[best] < iters {
			clocks[best] += adv(best, done[best])
		}
	}
	if len(order) != len(want) {
		t.Fatalf("got %d dispatches, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch %d: got proc %d, want proc %d", i, order[i], want[i])
		}
	}
}

func TestCascadedEvents(t *testing.T) {
	e := New(1)
	depth := 0
	err := e.Run(func(p *Proc) {
		var chain func()
		chain = func() {
			depth++
			if depth < 10 {
				e.Schedule(e.Now()+5, chain)
			}
		}
		e.Schedule(5, chain)
	})
	if err != nil {
		t.Fatal(err)
	}
	if depth != 10 {
		t.Errorf("depth = %d, want 10", depth)
	}
}
