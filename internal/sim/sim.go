// Package sim provides a deterministic execution-driven simulation engine.
//
// Simulated processors are real goroutines running real application code,
// but exactly one runs at a time: whoever holds the baton passes it to the
// runnable entity with the smallest virtual timestamp, which makes the
// simulation conservative (interactions are processed in global time order)
// and bit-for-bit reproducible.
//
// Each processor owns a local cycle clock that it advances freely between
// interactions (Compute). Immediately before any interaction with the rest
// of the system — sending a message, acquiring a lock — the processor calls
// Interact, which parks it until its clock is globally minimal. Events
// (message deliveries, protocol continuations) live in a priority queue and
// fire on the goroutine that holds the baton: there is no scheduler
// goroutine, a parking processor runs the due events itself and then wakes
// the next processor directly (or simply carries on when it is the next
// one), so an interaction costs at most one goroutine switch.
//
// This mirrors the execution-driven methodology of the Rice Parallel
// Processing Testbed used by the paper (Covington et al.): program behaviour
// — including data-dependent control flow such as TSP's stale-bound pruning
// — emerges from actually executing the program against simulated memory.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a virtual time in processor cycles.
type Time int64

// Infinity is a time later than any event in a simulation.
const Infinity Time = 1<<63 - 1

// Event is something that happens at a virtual time: a message delivery,
// a protocol continuation. Fire runs on the goroutine holding the baton.
type Event interface{ Fire() }

// Func adapts a plain callback to an Event.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled Event.
type event struct {
	at  Time
	seq int64 // FIFO tiebreaker
	ev  Event
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// readyHeap orders runnable processors by local clock, ties broken by
// processor ID so dispatch order matches a lowest-ID-first linear scan.
// A processor enters the heap when it becomes ready and leaves only by
// being dispatched, so no arbitrary removal is needed.
type readyHeap []*Proc

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].ID < h[j].ID
}
func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(*Proc)) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated processor.
type Proc struct {
	ID  int
	eng *Engine

	clock Time
	state procState

	resume chan struct{} // the baton: sent by whichever goroutine dispatched this processor
}

// Engine drives a set of simulated processors and an event queue.
type Engine struct {
	now     Time
	seq     int64
	events  eventQueue
	free    []*event // recycled event structs (one Post per interaction)
	procs   []*Proc
	ready   readyHeap  // runnable processors keyed by clock
	done    chan error // last baton holder -> Run: the simulation is over
	failure any        // panic captured from a proc body or an event it ran
}

// New returns an engine with n processors.
func New(n int) *Engine {
	e := &Engine{done: make(chan error)}
	for i := 0; i < n; i++ {
		e.procs = append(e.procs, &Proc{
			ID:     i,
			eng:    e,
			resume: make(chan struct{}),
		})
	}
	return e
}

// Procs returns the engine's processors.
func (e *Engine) Procs() []*Proc { return e.procs }

// Now returns the current global virtual time: the timestamp of the entity
// being executed.
func (e *Engine) Now() Time { return e.now }

// Post enqueues ev to fire at virtual time at. If at is in the past it
// fires at the current time (still in timestamp order with other events).
// Events due at the same time fire in the order they were posted.
func (e *Engine) Post(at Time, ev Event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	x := e.newEvent()
	x.at, x.seq, x.ev = at, e.seq, ev
	heap.Push(&e.events, x)
}

// Schedule enqueues fn to run at virtual time at, like Post.
func (e *Engine) Schedule(at Time, fn func()) { e.Post(at, Func(fn)) }

// newEvent takes an event struct from the free list, or allocates one.
func (e *Engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// releaseEvent recycles a dispatched event. The Event is cleared so the
// free list does not pin it (and whatever it captures) until reuse.
func (e *Engine) releaseEvent(ev *event) {
	ev.ev = nil
	e.free = append(e.free, ev)
}

// Run executes body on every processor until all bodies return and the event
// queue drains. It returns an error on deadlock (blocked processors with no
// pending events) and re-panics any panic raised inside a processor body or
// an event, with its original value.
func (e *Engine) Run(body func(*Proc)) error {
	for _, p := range e.procs {
		p.state = stateReady
		p.clock = 0
		heap.Push(&e.ready, p)
		go func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					e.failure = r
					e.done <- nil
				}
			}()
			<-p.resume // wait for first dispatch
			body(p)
			p.state = stateDone
			e.pass(p)
		}(p)
	}
	first := e.next()
	if first == nil {
		return e.verdict()
	}
	first.resume <- struct{}{}
	err := <-e.done
	if e.failure != nil {
		panic(e.failure)
	}
	return err
}

// next runs, on the calling goroutine, every event due before the earliest
// ready processor, then takes that processor off the ready heap and returns
// it running. It returns nil when neither events nor ready processors are
// left. Events win ties with processors.
func (e *Engine) next() *Proc {
	for {
		var te Time = Infinity
		if len(e.events) > 0 {
			te = e.events[0].at
		}
		var tp Time = Infinity
		if len(e.ready) > 0 {
			tp = e.ready[0].clock
		}
		switch {
		case te == Infinity && tp == Infinity:
			return nil
		case te <= tp:
			x := heap.Pop(&e.events).(*event)
			e.now = x.at
			ev := x.ev
			e.releaseEvent(x) // before Fire: the event may Post and reuse it
			ev.Fire()
		default:
			p := heap.Pop(&e.ready).(*Proc)
			e.now = tp
			p.state = stateRunning
			return p
		}
	}
}

// verdict is the result of a simulation with nothing left to run.
func (e *Engine) verdict() error {
	for _, p := range e.procs {
		if p.state == stateBlocked {
			return fmt.Errorf("sim: deadlock — processor %d blocked with no pending events at t=%d", p.ID, e.now)
		}
	}
	return nil
}

// pass is called by processor p's goroutine when p stops running (ready,
// blocked or done). It dispatches on that goroutine: if p itself is next it
// returns at once, otherwise it hands the baton to the next processor's
// goroutine (or ends the run) and, unless p is done, parks until some later
// holder hands it back.
func (e *Engine) pass(p *Proc) {
	wait := p.state != stateDone
	switch next := e.next(); next {
	case p:
		return
	case nil:
		e.done <- e.verdict()
	default:
		next.resume <- struct{}{}
	}
	if wait {
		<-p.resume
	}
}

// Clock returns the processor's local cycle clock.
func (p *Proc) Clock() Time { return p.clock }

// Advance moves the processor's local clock forward by cycles. It models
// local computation and does not yield to the scheduler: between
// interactions a processor's execution is independent of every other.
func (p *Proc) Advance(cycles Time) {
	if cycles < 0 {
		panic("sim: negative Advance")
	}
	p.clock += cycles
}

// Interact parks the processor until its local clock is globally minimal,
// so that the interaction it is about to perform is processed in global
// timestamp order. Returns with the processor running.
func (p *Proc) Interact() {
	p.state = stateReady
	heap.Push(&p.eng.ready, p)
	p.eng.pass(p)
}

// Block parks the processor indefinitely; some event must call Wake. On
// return the local clock has been advanced to the wake time.
func (p *Proc) Block() {
	p.state = stateBlocked
	p.eng.pass(p)
}

// Wake makes a blocked processor runnable again at virtual time at (or its
// current clock, whichever is later). It must be called from an event or
// from another processor's interaction code; either way exactly one entity
// is executing, so pushing onto the ready heap is safe.
func (p *Proc) Wake(at Time) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: Wake of processor %d in state %d", p.ID, p.state))
	}
	if at > p.clock {
		p.clock = at
	}
	if p.eng.now > p.clock {
		p.clock = p.eng.now
	}
	p.state = stateReady
	heap.Push(&p.eng.ready, p)
}
