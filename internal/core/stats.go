package core

import (
	"fmt"

	"lrcdsm/internal/network"
	"lrcdsm/internal/sim"
)

// MsgClass classifies a message for the paper's traffic breakdowns
// (e.g. "83% of the messages required by Water ... were for
// synchronization").
type MsgClass int

const (
	// ClassSync covers lock requests/forwards/grants and barrier
	// arrivals/departures.
	ClassSync MsgClass = iota
	// ClassData covers page and diff requests and replies, update pushes,
	// invalidations, and their acknowledgements.
	ClassData
)

// RunStats aggregates everything measured during one simulation run.
type RunStats struct {
	Protocol Protocol
	Procs    int

	// Cycles is the elapsed virtual time: the maximum processor clock at
	// completion.
	Cycles sim.Time

	// Message counters.
	Msgs         int64 // total messages
	SyncMsgs     int64 // ClassSync messages
	DataMsgs     int64 // ClassData messages
	SyncDataMsgs int64 // sync messages that carried shared data (LH/LU grants)
	LockMsgs     int64 // messages attributable to lock acquisition
	BarrierMsgs  int64
	MissMsgs     int64 // messages attributable to access misses

	// DataBytes is the shared data moved (diff and page payloads only;
	// consistency metadata is not counted, as in the paper).
	DataBytes int64

	AccessMisses int64
	PageFetches  int64
	DiffsCreated int64
	DiffsApplied int64
	TwinsCreated int64

	LockAcquires      int64
	LocalReacquires   int64
	LockWaitCycles    sim.Time
	BarrierEpisodes   int64
	BarrierWaitCycles sim.Time
	MissWaitCycles    sim.Time
	FlushWaitCycles   sim.Time // eager releases blocked on acknowledgements

	// PerProc breaks the elapsed time of each processor down by activity;
	// the residue of Cycles minus the wait categories is computation plus
	// local memory access.
	PerProc []ProcStats

	// HandlerCycles is the software overhead charged for message handling,
	// summed over both ends of every message.
	HandlerCycles sim.Time
	// DiffCycles is the computation charged for diff creation.
	DiffCycles sim.Time

	CacheHits    int64
	CacheMisses  int64
	SharedReads  int64
	SharedWrites int64

	Network network.Stats
}

// ProcStats is one processor's share of the run.
type ProcStats struct {
	Cycles       sim.Time // the processor's final clock
	LockWait     sim.Time
	BarrierWait  sim.Time
	MissWait     sim.Time
	FlushWait    sim.Time
	LockAcquires int64
	Misses       int64
}

// BusyShare returns the fraction of the processor's time not spent waiting
// on synchronization or faults.
func (p *ProcStats) BusyShare() float64 {
	if p.Cycles == 0 {
		return 0
	}
	wait := p.LockWait + p.BarrierWait + p.MissWait + p.FlushWait
	return float64(p.Cycles-wait) / float64(p.Cycles)
}

// LockShare returns the fraction of the processor's time spent acquiring
// locks — the paper's "84% of each processor's time was spent acquiring
// locks" metric for Cholesky.
func (p *ProcStats) LockShare() float64 {
	if p.Cycles == 0 {
		return 0
	}
	return float64(p.LockWait) / float64(p.Cycles)
}

// DataKB returns the shared data volume in kilobytes.
func (s *RunStats) DataKB() float64 { return float64(s.DataBytes) / 1024 }

// SyncShare returns the fraction of messages used for synchronization.
func (s *RunStats) SyncShare() float64 {
	if s.Msgs == 0 {
		return 0
	}
	return float64(s.SyncMsgs) / float64(s.Msgs)
}

// Seconds converts the elapsed cycles to seconds at the given clock.
func (s *RunStats) Seconds(clockMHz float64) float64 {
	return float64(s.Cycles) / (clockMHz * 1e6)
}

// String summarizes the run.
func (s *RunStats) String() string {
	return fmt.Sprintf("%s p=%d cycles=%d msgs=%d (sync %.0f%%) data=%.1fKB misses=%d",
		s.Protocol, s.Procs, s.Cycles, s.Msgs, 100*s.SyncShare(), s.DataKB(), s.AccessMisses)
}
