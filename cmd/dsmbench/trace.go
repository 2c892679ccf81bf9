package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/core"
	"lrcdsm/internal/serve/loadgen"
)

// span is one timed interval of a traced run. Spans of one iteration
// share Iter; Parent is the id of the span that caused this one (0 for
// the iteration's root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory; they are summarized,
// and optionally written to a file, when the run ends. Workers record
// into private buffers (spanBuf) and hand them over when they finish, so
// recording takes no lock.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32
	iter   int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns it with Start set; the caller sets End
// and records it.
func (t *tracer) begin(name string, parent int32) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Iter: t.iter, Name: name, Start: t.now()}
}

func (t *tracer) record(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanBuf is one goroutine's private span buffer under a parent span.
type spanBuf struct {
	t      *tracer
	parent int32
	spans  []span
}

func (b *spanBuf) timed(name string, fn func()) {
	s := b.t.begin(name, b.parent)
	fn()
	s.End = b.t.now()
	b.spans = append(b.spans, s)
}

// tracedWorker wraps a node's core.Worker: every Lock, Unlock and
// Barrier call becomes a span under the node's worker span. Reads and
// writes pass straight through the embedded Worker.
type tracedWorker struct {
	core.Worker
	buf spanBuf
}

func (w *tracedWorker) Lock(id int)    { w.buf.timed("lock", func() { w.Worker.Lock(id) }) }
func (w *tracedWorker) Unlock(id int)  { w.buf.timed("unlock", func() { w.Worker.Unlock(id) }) }
func (w *tracedWorker) Barrier(id int) { w.buf.timed("barrier", func() { w.Worker.Barrier(id) }) }

// traceWorker runs body on w. With a tracer it opens a worker span under
// parent, hands body the wrapped worker, and records the spans when body
// returns.
func traceWorker(t *tracer, parent int32, w core.Worker, body func(core.Worker)) {
	if t == nil {
		body(w)
		return
	}
	ws := t.begin("worker", parent)
	tw := &tracedWorker{Worker: w, buf: spanBuf{t: t, parent: ws.ID}}
	body(tw)
	ws.End = t.now()
	t.record(ws)
	t.record(tw.buf.spans...)
}

// doSampling is the serve workloads' span sampling rate: one Do call in
// this many is recorded.
const doSampling = 64

// tracedDriver wraps a loadgen.Driver (the serve.Server) and records a
// "do" span for one call in doSampling. One client goroutine owns it.
type tracedDriver struct {
	d   loadgen.Driver
	n   int
	buf spanBuf
}

func (t *tracedDriver) Do(put bool, key, val uint64) (v uint64, err error) {
	t.n++
	if t.n%doSampling != 0 {
		return t.d.Do(put, key, val)
	}
	t.buf.timed("do", func() { v, err = t.d.Do(put, key, val) })
	return v, err
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice, and a child is clipped to its parent).
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceSummary is what the traced run reports about the application's
// view of the runtime.
type traceSummary struct {
	lockP50us, lockTailus float64
	lockTailQ             float64 // the percentile lockTailus was taken at
	lockCalls             int
	barrierP50us          float64
	barrierCalls          int
	syncFrac, selfFrac    float64
}

// summarize digests the spans named parentName ("worker", or "client"
// for serve) and their children. scale multiplies the children's covered
// time, undoing the serve workloads' sampling.
func summarize(spans []span, parentName string, scale float64) traceSummary {
	var lock, bar []float64
	var total, self int64
	selfs := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "lock":
			lock = append(lock, float64(s.dur())/1e3)
		case "barrier":
			bar = append(bar, float64(s.dur())/1e3)
		case parentName:
			total += s.dur()
			self += selfs[s.ID]
		}
	}
	var ts traceSummary
	ts.lockCalls, ts.barrierCalls = len(lock), len(bar)
	ts.lockP50us = median(lock)
	ts.lockTailQ = tailQuantile(int64(len(lock)), 0.99)
	ts.lockTailus = percentile(lock, ts.lockTailQ)
	ts.barrierP50us = median(bar)
	if total > 0 {
		ts.syncFrac = scale * float64(total-self) / float64(total)
		ts.selfFrac = 1 - ts.syncFrac
	}
	return ts
}
