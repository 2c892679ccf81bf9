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
//
// The package injects network faults only. Node crashes are scheduled
// on protocol events by the supervisor (live.RecoverOptions.Crashes).
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
}

// Counters reports how many faults one wrapped transport injected.
type Counters struct {
	Dropped     int64 `json:"dropped"`
	Duplicated  int64 `json:"duplicated"`
	Delayed     int64 `json:"delayed"`
	Resets      int64 `json:"resets"`
	Partitioned int64 `json:"partitioned"`
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Dropped += other.Dropped
	c.Duplicated += other.Duplicated
	c.Delayed += other.Delayed
	c.Resets += other.Resets
	c.Partitioned += other.Partitioned
}

// Total is the number of injected faults.
func (c Counters) Total() int64 {
	return c.Dropped + c.Duplicated + c.Delayed + c.Resets + c.Partitioned
}

// Transport wraps an inner transport with fault injection. Handle, Recv,
// Self, N and Close delegate untouched; Send runs the fault schedule.
type Transport struct {
	inner transport.Transport
	cfg   Config
	start time.Time

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	ctr Counters // atomic fields
}

var _ transport.Transport = (*Transport)(nil)

// WrapAll wraps every transport of a cluster with one shared config and
// a common partition-window origin. Each node's fault stream is derived
// from cfg.Seed and the node id, so a cluster wrapped with one config
// replays one schedule per seed.
func WrapAll(inner []transport.Transport, cfg Config) []*Transport {
	start := time.Now()
	out := make([]*Transport, len(inner))
	for i, tr := range inner {
		out[i] = wrapAt(tr, cfg, start)
	}
	return out
}

func wrapAt(inner transport.Transport, cfg Config, start time.Time) *Transport {
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
	}
}

// Send implements transport.Transport, running the fault schedule.
// Injected losses report success — a faulty network drops silently, and
// the protocol layer must recover by retransmission, not by error
// handling.
func (t *Transport) Send(to int, payload []byte) error {
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
