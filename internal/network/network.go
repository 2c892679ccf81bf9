// Package network provides the timing models of the interconnects studied
// by the paper: a 10 Mbit/s Ethernet (a single shared medium, with and
// without a collision/backoff penalty) and ATM LANs modelled as a crossbar
// switch (processors communicate concurrently and interfere only when
// sending to a common destination). An ideal contention-free network is
// provided for upper-bound and testing purposes.
//
// All times are expressed in processor cycles; the conversion from wire
// seconds uses the configured processor clock, so raising the processor
// speed makes the network proportionally more expensive in cycles — exactly
// the effect studied in Section 6.5 of the paper.
package network

import (
	"fmt"
	"math"

	"lrcdsm/internal/sim"
)

// Kind selects a network model.
type Kind int

const (
	// EthernetColl is the shared 10 Mbit/s medium including a collision /
	// exponential-backoff penalty under load ("10 Mbit Ethernet w/ Coll").
	EthernetColl Kind = iota
	// EthernetNoColl is the shared medium with pure FIFO arbitration and no
	// collision penalty ("10 Mbit Ethernet w/o Coll").
	EthernetNoColl
	// ATM is a crossbar switch: per-source and per-destination link
	// serialization only.
	ATM
	// Ideal has no contention at all: wire time plus latency.
	Ideal
)

func (k Kind) String() string {
	switch k {
	case EthernetColl:
		return "ethernet+coll"
	case EthernetNoColl:
		return "ethernet"
	case ATM:
		return "atm"
	case Ideal:
		return "ideal"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Params configures a network model.
type Params struct {
	Kind          Kind
	BandwidthMbps float64 // link (ATM) or medium (Ethernet) bandwidth
	LatencyMicros float64 // propagation / switch latency per message
	ClockMHz      float64 // processor clock, for cycle conversion
	HeaderBytes   int     // per-frame header added to the payload on the wire
	SlotMicros    float64 // Ethernet contention slot (backoff unit)
}

// DefaultHeaderBytes is the wire framing charged per message in addition to
// the shared-data payload. Reported data volumes count payload only,
// matching the paper's accounting.
const DefaultHeaderBytes = 64

// Ethernet10 returns the paper's 10 Mbit/s Ethernet.
func Ethernet10(clockMHz float64, collisions bool) Params {
	k := EthernetNoColl
	if collisions {
		k = EthernetColl
	}
	return Params{
		Kind:          k,
		BandwidthMbps: 10,
		LatencyMicros: 5,
		ClockMHz:      clockMHz,
		HeaderBytes:   DefaultHeaderBytes,
		SlotMicros:    51.2,
	}
}

// ATMNet returns a crossbar ATM network of the given link bandwidth.
func ATMNet(bandwidthMbps, clockMHz float64) Params {
	return Params{
		Kind:          ATM,
		BandwidthMbps: bandwidthMbps,
		LatencyMicros: 10,
		ClockMHz:      clockMHz,
		HeaderBytes:   DefaultHeaderBytes,
	}
}

// IdealNet returns a contention-free network of the given bandwidth.
func IdealNet(bandwidthMbps, clockMHz float64) Params {
	return Params{
		Kind:          Ideal,
		BandwidthMbps: bandwidthMbps,
		LatencyMicros: 10,
		ClockMHz:      clockMHz,
		HeaderBytes:   DefaultHeaderBytes,
	}
}

// Stats accumulates network-level counters for a run.
type Stats struct {
	Frames     int64
	WireBytes  int64    // payload + headers actually on the wire
	WaitCycles sim.Time // cycles senders spent waiting for the medium/links
	BusyCycles sim.Time // cycles the medium (Ethernet) or links (ATM) were busy
	Backoffs   int64    // Ethernet collision-mode backoff episodes
}

// Network models message timing. Send is called in global timestamp order
// (guaranteed by the simulation engine), computes when the message is
// delivered at dst's interface, and updates contention state.
type Network interface {
	// Send presents a message of payloadBytes from src to dst at time now
	// (after the sender's software overhead has been charged). It returns
	// the delivery time at dst (before the receiver's software overhead) and
	// the cycles spent waiting for the medium.
	Send(now sim.Time, src, dst, payloadBytes int) (deliver, wait sim.Time)
	Stats() *Stats
}

// New builds a network model from parameters.
func New(p Params) Network {
	base := base{p: p, latency: microsToCycles(p.LatencyMicros, p.ClockMHz)}
	switch p.Kind {
	case EthernetColl, EthernetNoColl:
		return &ethernet{base: base, collisions: p.Kind == EthernetColl,
			slot: microsToCycles(p.SlotMicros, p.ClockMHz)}
	case ATM:
		return &atm{base: base, outFree: map[int]sim.Time{}}
	case Ideal:
		return &ideal{base: base}
	}
	panic(fmt.Sprintf("network: unknown kind %v", p.Kind))
}

type base struct {
	p       Params
	latency sim.Time
	stats   Stats
}

func (b *base) Stats() *Stats { return &b.stats }

// wireCycles converts a payload size to transmission cycles on the wire,
// including the frame header.
func (b *base) wireCycles(payloadBytes int) sim.Time {
	bytes := payloadBytes + b.p.HeaderBytes
	bits := float64(bytes) * 8
	cycles := bits * b.p.ClockMHz / b.p.BandwidthMbps
	return sim.Time(math.Ceil(cycles))
}

func (b *base) account(payloadBytes int, wire, wait sim.Time) {
	b.stats.Frames++
	b.stats.WireBytes += int64(payloadBytes + b.p.HeaderBytes)
	b.stats.BusyCycles += wire
	b.stats.WaitCycles += wait
}

func microsToCycles(us, clockMHz float64) sim.Time {
	return sim.Time(math.Ceil(us * clockMHz))
}

// ethernet is a single shared medium. Transmissions serialize FIFO; in
// collision mode, a sender that finds the medium busy pays an additional
// backoff penalty that grows exponentially with the number of stations
// already waiting — a deterministic stand-in for CSMA/CD binary exponential
// backoff (the paper: "actual network collisions as well as the effect of
// protocols like exponential backoff").
type ethernet struct {
	base
	collisions bool
	slot       sim.Time
	freeAt     sim.Time
	pending    []sim.Time // start times of queued transmissions, pruned lazily
}

func (e *ethernet) Send(now sim.Time, src, dst, payloadBytes int) (sim.Time, sim.Time) {
	wire := e.wireCycles(payloadBytes)
	start := now
	if e.freeAt > start {
		start = e.freeAt
	}
	if e.collisions && start > now {
		// count stations currently contending (queued to start after now)
		k := 0
		live := e.pending[:0]
		for _, s := range e.pending {
			if s > now {
				live = append(live, s)
				k++
			}
		}
		e.pending = live
		if k > 0 {
			if k > 6 {
				k = 6
			}
			penalty := e.slot * sim.Time((int(1)<<k)-1) / 2
			start += penalty
			e.stats.Backoffs++
		}
	}
	e.pending = append(e.pending, start)
	e.freeAt = start + wire
	wait := start - now
	e.account(payloadBytes, wire, wait)
	return start + wire + e.latency, wait
}

// atm is a crossbar switch modelled exactly as the paper describes:
// "processors in an ATM network can communicate concurrently and interfere
// only when they try to send to a common destination" — transmissions
// serialize on the destination's output link only.
type atm struct {
	base
	outFree map[int]sim.Time
}

func (a *atm) Send(now sim.Time, src, dst, payloadBytes int) (sim.Time, sim.Time) {
	wire := a.wireCycles(payloadBytes)
	start := now
	if t := a.outFree[dst]; t > start {
		start = t
	}
	end := start + wire
	a.outFree[dst] = end
	wait := start - now
	a.account(payloadBytes, wire, wait)
	return end + a.latency, wait
}

// ideal has unlimited parallel capacity.
type ideal struct {
	base
}

func (i *ideal) Send(now sim.Time, src, dst, payloadBytes int) (sim.Time, sim.Time) {
	wire := i.wireCycles(payloadBytes)
	i.account(payloadBytes, wire, 0)
	return now + wire + i.latency, 0
}
