package core

import (
	"fmt"

	"lrcdsm/internal/network"
	"lrcdsm/internal/sim"
)

// Protocol selects one of the five release-consistency protocols.
type Protocol int

const (
	// LH is the paper's new lazy hybrid protocol: the lock grant piggybacks
	// diffs for pages the releaser believes the acquirer caches; other
	// noticed pages are invalidated.
	LH Protocol = iota
	// LI is lazy invalidate: write notices on the grant, invalidation of
	// noticed pages, data moves only on access misses.
	LI
	// LU is lazy update: never invalidates; an acquire does not complete
	// until all diffs named by incoming write notices for locally cached
	// pages have been obtained.
	LU
	// EI is eager invalidate (Munin-style): at a release, invalidations are
	// flushed to all cachers of modified pages.
	EI
	// EU is eager update: at a release, diffs are flushed to all cachers of
	// modified pages.
	EU
)

// Protocols lists all five protocols in the paper's presentation order.
var Protocols = []Protocol{LH, LI, LU, EI, EU}

func (p Protocol) String() string {
	switch p {
	case LH:
		return "LH"
	case LI:
		return "LI"
	case LU:
		return "LU"
	case EI:
		return "EI"
	case EU:
		return "EU"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Lazy reports whether the protocol propagates consistency information at
// acquires (lazily) rather than at releases (eagerly).
func (p Protocol) Lazy() bool { return p == LH || p == LI || p == LU }

// ParseProtocol converts a protocol name ("LH", "li", ...) to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range Protocols {
		if eqFold(p.String(), s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown protocol %q", s)
}

func eqFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Architectural defaults from Section 5.2 of the paper (OCR-reconstructed;
// see DESIGN.md).
const (
	DefaultPageSize      = 4096
	DefaultClockMHz      = 40
	DefaultCacheBytes    = 64 * 1024
	DefaultCacheLine     = 32
	DefaultMemLatency    = 12
	DefaultFixedOverhead = 1000 // cycles per message per end
)

// Config describes one simulated DSM system.
type Config struct {
	Protocol Protocol
	Procs    int
	PageSize int

	ClockMHz float64        // processor clock; scales network cycle costs
	Net      network.Params // network model

	// OverheadFactor scales the per-message software overhead: 0 for the
	// "Zero", 1 for "Normal" and 2 for "Double" rows of Table 3.
	OverheadFactor float64

	// FixedOverheadCycles is the per-message fixed cost at each end
	// (operating system, user-level handler dispatch, DSM bookkeeping).
	FixedOverheadCycles sim.Time

	// CacheBytes/CacheLine/MemLatencyCycles configure the per-processor
	// cache model; CacheBytes = 0 disables it (1-cycle accesses).
	CacheBytes       int
	CacheLine        int
	MemLatencyCycles sim.Time

	// MaxSharedBytes bounds the shared address space (allocator capacity).
	MaxSharedBytes int

	// DebugCheckReads makes every shared read compare against the oracle
	// image and panic on mismatch. Only sound for fully synchronized
	// programs (no benign races): used by tests to localize coherence bugs.
	DebugCheckReads bool

	// TraceCapacity enables protocol event tracing, keeping the most
	// recent events in a ring of this size (see internal/trace; exposed
	// through System.Trace and dsmsim's -trace flag). Zero disables.
	TraceCapacity int

	// Observer, when non-nil, receives protocol events for runtime
	// invariant checking (see internal/check). It adds a few branches to
	// the protocol hot paths; production sweeps leave it nil.
	Observer Observer

	// CentralizedLocks is an ablation of the paper's distributed lock
	// queue: the token returns to the statically assigned manager at every
	// release (consistency information is relayed through the manager),
	// instead of being granted releaser-to-acquirer. Costs an extra message
	// per release and an extra acquire/release pair of consistency
	// processing at the manager.
	CentralizedLocks bool
}

// DefaultConfig returns the paper's base configuration: 16 processors at
// 40 MHz, 4096-byte pages, 100 Mbit/s ATM, normal software overhead.
func DefaultConfig() Config {
	return Config{
		Protocol:            LH,
		Procs:               16,
		PageSize:            DefaultPageSize,
		ClockMHz:            DefaultClockMHz,
		Net:                 network.ATMNet(100, DefaultClockMHz),
		OverheadFactor:      1,
		FixedOverheadCycles: DefaultFixedOverhead,
		CacheBytes:          DefaultCacheBytes,
		CacheLine:           DefaultCacheLine,
		MemLatencyCycles:    DefaultMemLatency,
		MaxSharedBytes:      64 << 20,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Procs < 1 || c.Procs > 64:
		return fmt.Errorf("core: Procs = %d, want 1..64", c.Procs)
	case c.PageSize < 64 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("core: PageSize = %d, want power of two >= 64", c.PageSize)
	case c.ClockMHz <= 0:
		return fmt.Errorf("core: ClockMHz = %v", c.ClockMHz)
	case c.OverheadFactor < 0:
		return fmt.Errorf("core: OverheadFactor = %v", c.OverheadFactor)
	case c.MaxSharedBytes < c.PageSize:
		return fmt.Errorf("core: MaxSharedBytes = %d too small", c.MaxSharedBytes)
	}
	return nil
}

// messageOverheadCycles is the software overhead charged at one end of a
// message carrying payloadBytes of shared data. The paper charges
// 1000 + len·1.5/4 cycles per end, and models the lazy implementation's
// extra complexity by doubling the per-byte term at both ends.
func (c Config) messageOverheadCycles(payloadBytes int) sim.Time {
	perByte := 1.5 / 4.0
	if c.Protocol.Lazy() {
		perByte *= 2
	}
	cycles := (float64(c.FixedOverheadCycles) + float64(payloadBytes)*perByte) * c.OverheadFactor
	return sim.Time(cycles)
}

// diffCreationCycles is the cost of creating a diff of one page: four
// cycles per (4-byte) word per page, i.e. one cycle per byte.
func (c Config) diffCreationCycles() sim.Time {
	return sim.Time(c.PageSize)
}
