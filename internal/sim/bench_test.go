package sim

import (
	"fmt"
	"testing"
)

// BenchmarkInteract measures the coroutine handoff cost per interaction —
// the simulator's fundamental overhead unit — across processor counts.
// Before the ready heap, picking the next processor cost O(P) per handoff.
// A lone processor is always the next one due and never switches.
func BenchmarkInteract(b *testing.B) {
	for _, procs := range []int{1, 2, 16, 64} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			e := New(procs)
			n := b.N
			b.ReportAllocs()
			b.ResetTimer()
			err := e.Run(func(p *Proc) {
				for i := 0; i < n; i++ {
					p.Advance(Time(1 + p.ID%3))
					p.Interact()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkScheduleDispatch measures steady-state event throughput — the
// protocol's shape: a handful of events in flight per interaction, each
// dispatched before the next is scheduled. With the event free-list this
// allocates nothing per cycle.
func BenchmarkScheduleDispatch(b *testing.B) {
	e := New(1)
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	err := e.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Schedule(p.Clock(), func() {})
			p.Advance(1)
			p.Interact()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// tick is the smallest typed event: a message's shape without its work.
type tick struct{ n int }

func (t *tick) Fire() { t.n++ }

// BenchmarkPostDispatch is BenchmarkScheduleDispatch with a typed event,
// the way the protocol posts a message: one reused pointer, no closure.
func BenchmarkPostDispatch(b *testing.B) {
	e := New(1)
	ev := &tick{}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	err := e.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Post(p.Clock(), ev)
			p.Advance(1)
			p.Interact()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if ev.n != n {
		b.Fatalf("%d events fired, want %d", ev.n, n)
	}
}

// BenchmarkScheduleBurst measures heap throughput when many events are
// enqueued before any dispatches (barrier fan-out).
func BenchmarkScheduleBurst(b *testing.B) {
	e := New(1)
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	err := e.Run(func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Schedule(Time(i), func() {})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
