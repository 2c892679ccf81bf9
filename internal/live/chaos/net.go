package chaos

import (
	"sync"

	"lrcdsm/internal/live/transport"
)

// Net wraps a whole transport.Network with fault injection so the
// supervisor's recovery path runs under the same fault schedule as the
// original run: a rejoined node's fresh transport is wrapped with the
// same config and the same partition-window origin.
type Net struct {
	inner transport.Network
	cfg   Config

	mu      sync.Mutex
	wrapped []*Transport
	retired Counters // counters of replaced incarnations
}

var _ transport.Network = (*Net)(nil)

// WrapNet builds a fault-injecting view of a whole network.
func WrapNet(inner transport.Network, cfg Config) *Net {
	return &Net{inner: inner, cfg: cfg, wrapped: WrapAll(inner.Transports(), cfg)}
}

// Transports implements transport.Network.
func (nw *Net) Transports() []transport.Transport {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make([]transport.Transport, len(nw.wrapped))
	for i, t := range nw.wrapped {
		out[i] = t
	}
	return out
}

// Rejoin implements transport.Network: the fresh incarnation is wrapped
// with the same schedule, and the replaced wrapper's fault counters are
// folded into the network total.
func (nw *Net) Rejoin(i int) (transport.Transport, error) {
	fresh, err := nw.inner.Rejoin(i)
	if err != nil {
		return nil, err
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	old := nw.wrapped[i]
	nw.retired.Add(old.Counters())
	// Keep the original partition-window origin so "From" offsets stay
	// anchored at cluster start, not at each restart.
	t := wrapAt(fresh, nw.cfg, old.start)
	nw.wrapped[i] = t
	return t, nil
}

// Close implements transport.Network.
func (nw *Net) Close() error { return nw.inner.Close() }

// Counters totals the faults injected across every incarnation of every
// node's transport.
func (nw *Net) Counters() Counters {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	sum := nw.retired
	for _, t := range nw.wrapped {
		sum.Add(t.Counters())
	}
	return sum
}
