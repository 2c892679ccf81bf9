// Package chaos is a fault-injecting transport middleware for the live
// DSM runtime: it wraps any transport.Transport and, driven by a seeded
// schedule, drops, delays, duplicates and reorders frames, severs
// per-peer connections, and partitions node pairs for configurable
// windows. The protocol engine above it is expected to survive every
// fault except a partition, which failure detection must convert into a
// clean structured abort — that expectation is what the chaos soak tests
// (internal/live) enforce.
//
// Faults are injected on the send side, before the inner transport
// assigns any sequence numbers, so the inner transport's own guarantees
// (per-peer ordering, reconnect retransmission) still hold for the
// frames that are let through — what the engine sees is a lossy,
// re-ordering, duplicating network, exactly the paper's protocols'
// worst case. Delayed frames intentionally break per-peer FIFO: a held
// frame lets younger frames pass it.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lrcdsm/internal/live/transport"
)

// Partition takes one node pair offline from each other for a window
// measured from the chaos transport's creation. A non-positive Dur
// partitions the pair forever.
type Partition struct {
	A, B int
	From time.Duration
	Dur  time.Duration
}

// Config parameterizes the fault schedule. Probabilities are per frame
// and independent; the zero value injects nothing.
type Config struct {
	// Seed drives the per-node fault schedule. Wrapped nodes derive
	// distinct streams from it, so one seed reproduces one cluster-wide
	// schedule (up to goroutine interleaving of the sends themselves).
	Seed int64
	// DropP silently discards a frame.
	DropP float64
	// DupP sends an extra copy of a frame.
	DupP float64
	// DelayP holds a frame for a uniform delay in (0, DelayMax] before
	// handing it to the inner transport — younger frames overtake it.
	DelayP   float64
	DelayMax time.Duration
	// ResetP severs the established connection to the destination before
	// sending, when the inner transport supports it (TCP); the send then
	// exercises the re-dial + retransmit path.
	ResetP float64
	// Partitions lists node pairs to take offline for windows.
	Partitions []Partition
	// Crashes schedules whole-node failures on the cluster-wide operation
	// count (frames attempted through any wrapped transport). Each entry
	// fires OnCrash exactly once.
	Crashes []Crash
	// OnCrash is invoked (asynchronously) when a scheduled crash fires.
	// The supervisor wires this to kill-and-restart; tests can wire it to
	// anything. Nil disables the crash schedule.
	OnCrash func(node int, restartAfter time.Duration)
}

// Crash kills node Node when the cluster-wide operation count reaches
// AtOp, to be restarted after RestartAfter (non-positive means
// immediately). The operation count is the number of sends attempted
// through the wrapped cluster, so one seed and one schedule reproduce
// one crash point up to goroutine interleaving.
type Crash struct {
	Node         int
	AtOp         int64
	RestartAfter time.Duration
	// Local counts only frames sent by Node itself instead of the
	// cluster-wide total. A workload whose victim finishes its own work
	// early (tsp: the satellites make a handful of RPCs while node 0
	// grinds on) needs this to pin the kill inside the victim's active
	// lifetime regardless of how fast the rest of the cluster runs.
	Local bool
}

// sched is the cluster-shared crash schedule: one op counter and one
// fired flag per crash entry, shared by every wrapped transport of the
// cluster (and by rejoined incarnations through Net).
type sched struct {
	ops     atomic.Int64
	crashes []crashEntry
	onCrash func(int, time.Duration)
}

type crashEntry struct {
	c     Crash
	local atomic.Int64 // Local entries: the victim's own send count
	fired atomic.Bool
}

func newSched(cfg Config) *sched {
	if cfg.OnCrash == nil || len(cfg.Crashes) == 0 {
		return nil
	}
	s := &sched{crashes: make([]crashEntry, len(cfg.Crashes)), onCrash: cfg.OnCrash}
	for i, c := range cfg.Crashes {
		s.crashes[i].c = c
	}
	return s
}

// step advances the op counters for a send by node self and fires any
// crash entries whose threshold was crossed. It returns the number
// fired by this step.
func (s *sched) step(self int) int64 {
	op := s.ops.Add(1)
	var fired int64
	for i := range s.crashes {
		e := &s.crashes[i]
		at := op
		if e.c.Local {
			if self != e.c.Node {
				continue
			}
			at = e.local.Add(1)
		}
		if at >= e.c.AtOp && e.fired.CompareAndSwap(false, true) {
			fired++
			if e.c.Local {
				// The victim is killing itself mid-send: fire inline so it
				// cannot finish its work before the kill lands — the rest
				// of this Send already runs against the closed transport.
				// (Kill is non-blocking, so running it under the sender's
				// stack is safe.)
				s.onCrash(e.c.Node, e.c.RestartAfter)
				continue
			}
			// Fire asynchronously: the kill path closes transports, and
			// must not run under the sender's locks.
			go s.onCrash(e.c.Node, e.c.RestartAfter)
		}
	}
	return fired
}

// Counters reports how many faults one wrapped transport injected.
type Counters struct {
	Dropped     int64 `json:"dropped"`
	Duplicated  int64 `json:"duplicated"`
	Delayed     int64 `json:"delayed"`
	Resets      int64 `json:"resets"`
	Partitioned int64 `json:"partitioned"`
	Crashes     int64 `json:"crashes"`
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Dropped += other.Dropped
	c.Duplicated += other.Duplicated
	c.Delayed += other.Delayed
	c.Resets += other.Resets
	c.Partitioned += other.Partitioned
	c.Crashes += other.Crashes
}

// Total is the number of injected faults.
func (c Counters) Total() int64 {
	return c.Dropped + c.Duplicated + c.Delayed + c.Resets + c.Partitioned + c.Crashes
}

// Transport wraps an inner transport with fault injection. Handle, Recv,
// Self, N and Close delegate untouched; Send runs the fault schedule.
type Transport struct {
	inner transport.Transport
	cfg   Config
	start time.Time
	sched *sched // cluster-shared crash schedule; nil when disabled

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	ctr Counters // atomic fields
}

var _ transport.Transport = (*Transport)(nil)

// Wrap builds a fault-injecting view of inner. The node's fault stream
// is derived from cfg.Seed and the node id, so a cluster wrapped with
// one config replays one schedule per seed.
func Wrap(inner transport.Transport, cfg Config) *Transport {
	return wrapAt(inner, cfg, time.Now(), newSched(cfg))
}

// WrapAll wraps every transport of a cluster with one shared config, a
// common partition-window origin and one shared crash schedule.
func WrapAll(inner []transport.Transport, cfg Config) []*Transport {
	start := time.Now()
	sc := newSched(cfg)
	out := make([]*Transport, len(inner))
	for i, tr := range inner {
		out[i] = wrapAt(tr, cfg, start, sc)
	}
	return out
}

// Transports converts a wrapped set to the interface slice a cluster
// config takes.
func Transports(ts []*Transport) []transport.Transport {
	out := make([]transport.Transport, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}

// SumCounters totals the fault counters of a wrapped cluster.
func SumCounters(ts []*Transport) Counters {
	var sum Counters
	for _, t := range ts {
		sum.Add(t.Counters())
	}
	return sum
}

func wrapAt(inner transport.Transport, cfg Config, start time.Time, sc *sched) *Transport {
	// splitmix-style seed derivation keeps per-node streams uncorrelated
	// even for adjacent seeds/ids.
	s := uint64(cfg.Seed) + 0x9e3779b97f4a7c15*uint64(inner.Self()+1)
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	return &Transport{
		inner: inner,
		cfg:   cfg,
		start: start,
		sched: sc,
		rng:   rand.New(rand.NewSource(int64(s))),
	}
}

// Self implements transport.Transport.
func (t *Transport) Self() int { return t.inner.Self() }

// N implements transport.Transport.
func (t *Transport) N() int { return t.inner.N() }

// Handle implements transport.Transport: the inner transport calls h,
// so inbound frames see exactly the faults their senders injected.
func (t *Transport) Handle(h func(transport.Frame)) { t.inner.Handle(h) }

// Recv implements transport.Transport.
func (t *Transport) Recv() (transport.Frame, error) { return t.inner.Recv() }

// Close implements transport.Transport. Frames still held by delay
// timers are sent into the closed inner transport and vanish — which is
// just one more drop.
func (t *Transport) Close() error { return t.inner.Close() }

// Counters returns a snapshot of the faults injected so far.
func (t *Transport) Counters() Counters {
	return Counters{
		Dropped:     atomic.LoadInt64(&t.ctr.Dropped),
		Duplicated:  atomic.LoadInt64(&t.ctr.Duplicated),
		Delayed:     atomic.LoadInt64(&t.ctr.Delayed),
		Resets:      atomic.LoadInt64(&t.ctr.Resets),
		Partitioned: atomic.LoadInt64(&t.ctr.Partitioned),
		Crashes:     atomic.LoadInt64(&t.ctr.Crashes),
	}
}

// Send implements transport.Transport, running the fault schedule.
// Injected losses report success — a faulty network drops silently, and
// the protocol layer must recover by retransmission, not by error
// handling.
func (t *Transport) Send(to int, payload []byte) error {
	if t.sched != nil {
		// Crashes attribute to whichever transport's send crossed the
		// threshold, so summing per-transport counters counts each once.
		if fired := t.sched.step(t.inner.Self()); fired > 0 {
			atomic.AddInt64(&t.ctr.Crashes, fired)
		}
	}
	if t.partitioned(to) {
		atomic.AddInt64(&t.ctr.Partitioned, 1)
		return nil
	}
	t.mu.Lock()
	drop := t.cfg.DropP > 0 && t.rng.Float64() < t.cfg.DropP
	dup := t.cfg.DupP > 0 && t.rng.Float64() < t.cfg.DupP
	reset := t.cfg.ResetP > 0 && t.rng.Float64() < t.cfg.ResetP
	var delay time.Duration
	if t.cfg.DelayP > 0 && t.cfg.DelayMax > 0 && t.rng.Float64() < t.cfg.DelayP {
		delay = time.Duration(1 + t.rng.Int63n(int64(t.cfg.DelayMax)))
	}
	t.mu.Unlock()

	if drop {
		atomic.AddInt64(&t.ctr.Dropped, 1)
		return nil
	}
	if reset {
		if r, ok := t.inner.(transport.PeerResetter); ok {
			r.ResetPeer(to)
			atomic.AddInt64(&t.ctr.Resets, 1)
		}
	}
	if dup {
		atomic.AddInt64(&t.ctr.Duplicated, 1)
		t.inner.Send(to, payload)
	}
	if delay > 0 {
		atomic.AddInt64(&t.ctr.Delayed, 1)
		time.AfterFunc(delay, func() { t.inner.Send(to, payload) })
		return nil
	}
	return t.inner.Send(to, payload)
}

// partitioned reports whether the link to peer `to` is inside an active
// partition window.
func (t *Transport) partitioned(to int) bool {
	if len(t.cfg.Partitions) == 0 {
		return false
	}
	self, now := t.inner.Self(), time.Since(t.start)
	for _, p := range t.cfg.Partitions {
		if (p.A != self || p.B != to) && (p.B != self || p.A != to) {
			continue
		}
		if now >= p.From && (p.Dur <= 0 || now < p.From+p.Dur) {
			return true
		}
	}
	return false
}
